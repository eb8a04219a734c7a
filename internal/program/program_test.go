package program

import (
	"strings"
	"testing"

	"dpbp/internal/isa"
)

// tinyProgram builds:
//
//	0: ldi r4, #1
//	1: beqz r4, @4
//	2: addi r4, r4, #1
//	3: jmp @0
//	4: ret r2
func tinyProgram() *Program {
	return &Program{
		Name: "tiny",
		Code: []isa.Inst{
			{Op: isa.OpLdi, Dst: 4, Imm: 1},
			{Op: isa.OpBeqz, Src1: 4, Target: 4},
			{Op: isa.OpAddi, Dst: 4, Src1: 4, Imm: 1},
			{Op: isa.OpJmp, Target: 0},
			{Op: isa.OpRet, Src1: isa.RRA},
		},
	}
}

func TestValidate(t *testing.T) {
	p := tinyProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	empty := &Program{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}

	bad := tinyProgram()
	bad.Code[3].Target = 99
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range target accepted: %v", err)
	}

	micro := tinyProgram()
	micro.Code[0] = isa.Inst{Op: isa.OpVpInst, Dst: 4}
	if err := micro.Validate(); err == nil || !strings.Contains(err.Error(), "micro") {
		t.Errorf("micro-instruction in primary code accepted: %v", err)
	}

	inv := tinyProgram()
	inv.Code[2] = isa.Inst{}
	if err := inv.Validate(); err == nil || !strings.Contains(err.Error(), "invalid opcode") {
		t.Errorf("invalid opcode accepted: %v", err)
	}

	entry := tinyProgram()
	entry.Entry = 100
	if err := entry.Validate(); err == nil || !strings.Contains(err.Error(), "entry") {
		t.Errorf("bad entry accepted: %v", err)
	}
}

func TestStaticBranches(t *testing.T) {
	p := tinyProgram()
	got := p.StaticBranches()
	// Terminating = conditional or indirect jump; ret is indirect but not
	// terminating per the paper (it is not OpJmpInd), jmp is neither.
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("StaticBranches = %v, want [1]", got)
	}
}

func TestDisassemble(t *testing.T) {
	p := tinyProgram()
	s := p.Disassemble(0, 100)
	if !strings.Contains(s, "ldi r4, #1") || !strings.Contains(s, "jmp @0") {
		t.Errorf("disassembly missing lines:\n%s", s)
	}
	if n := strings.Count(s, "\n"); n != len(p.Code) {
		t.Errorf("disassembly has %d lines, want %d", n, len(p.Code))
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder("built")
	b.Label("entry")
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 4, Imm: 3})
	b.Label("loop")
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 4, Src1: 4, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: 4}, "loop")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "done")
	b.Label("done")
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})

	p := b.Finish()
	if err := p.Validate(); err != nil {
		t.Fatalf("built program invalid: %v", err)
	}
	if p.Code[2].Target != 1 {
		t.Errorf("bnez target = %d, want 1", p.Code[2].Target)
	}
	if p.Code[3].Target != 4 {
		t.Errorf("jmp target = %d, want 4 (forward patch)", p.Code[3].Target)
	}
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0", p.Entry)
	}
	if b.LabelAddr("done") != 4 {
		t.Errorf("LabelAddr(done) = %d", b.LabelAddr("done"))
	}
}

func TestBuilderPanics(t *testing.T) {
	t.Run("duplicate label", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on duplicate label")
			}
		}()
		b := NewBuilder("x")
		b.Label("a")
		b.Label("a")
	})
	t.Run("unresolved label", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on unresolved label")
			}
		}()
		b := NewBuilder("x")
		b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "nowhere")
		b.Finish()
	})
	t.Run("unbound LabelAddr", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on unbound LabelAddr")
			}
		}()
		NewBuilder("x").LabelAddr("nowhere")
	})
}
