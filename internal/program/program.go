// Package program represents executable programs for the simulator: a flat,
// word-addressed instruction array with an entry point and an initial data
// image. The synthetic workload generator emits Programs through Builder.
package program

import (
	"fmt"

	"dpbp/internal/isa"
)

// Program is a complete executable image. Code is word-addressed: the
// instruction at isa.Addr a is Code[a]. Data is the initial data-memory
// image, addressed in words starting at DataBase.
type Program struct {
	Name  string
	Code  []isa.Inst
	Entry isa.Addr

	// DataBase is the lowest data address; Data[i] initialises word
	// DataBase+i. The stack grows downward from StackBase.
	DataBase  isa.Addr
	Data      []isa.Word
	StackBase isa.Addr
}

// At returns the instruction at addr. It panics if addr is out of range;
// the emulator treats that as a program bug.
func (p *Program) At(addr isa.Addr) isa.Inst {
	return p.Code[addr]
}

// Valid reports whether addr is a valid instruction address.
func (p *Program) Valid(addr isa.Addr) bool {
	return addr < isa.Addr(len(p.Code))
}

// Validate checks structural invariants: non-empty code, a valid entry
// point, and all direct branch targets in range. It returns the first
// violation found.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q: empty code", p.Name)
	}
	if !p.Valid(p.Entry) {
		return fmt.Errorf("program %q: entry %d out of range", p.Name, p.Entry)
	}
	for a, in := range p.Code {
		if in.Op == isa.OpInvalid {
			return fmt.Errorf("program %q: invalid opcode at %d", p.Name, a)
		}
		if in.IsMicro() {
			return fmt.Errorf("program %q: micro-instruction %v at %d in primary code", p.Name, in.Op, a)
		}
		if in.IsBranch() && !in.IsIndirect() {
			if !p.Valid(in.Target) {
				return fmt.Errorf("program %q: branch at %d targets %d, out of range", p.Name, a, in.Target)
			}
		}
	}
	return nil
}

// StaticBranches returns the addresses of all terminating branches
// (conditional or indirect) in the program.
func (p *Program) StaticBranches() []isa.Addr {
	var out []isa.Addr
	for a, in := range p.Code {
		if in.IsTerminatingBranch() {
			out = append(out, isa.Addr(a))
		}
	}
	return out
}

// Disassemble renders the instructions in [start, end) one per line with
// addresses, for debugging and the trace tool.
func (p *Program) Disassemble(start, end isa.Addr) string {
	if end > isa.Addr(len(p.Code)) {
		end = isa.Addr(len(p.Code))
	}
	var s string
	for a := start; a < end; a++ {
		s += fmt.Sprintf("%6d: %s\n", a, p.Code[a])
	}
	return s
}

// Builder incrementally assembles a Program. The synthetic generator uses
// it to emit code with forward-label patching.
type Builder struct {
	name    string
	code    []isa.Inst
	patches []patch
	labels  map[string]isa.Addr
}

type patch struct {
	at    isa.Addr
	label string
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]isa.Addr)}
}

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() isa.Addr { return isa.Addr(len(b.code)) }

// Emit appends an instruction and returns its address.
func (b *Builder) Emit(in isa.Inst) isa.Addr {
	b.code = append(b.code, in)
	return isa.Addr(len(b.code) - 1)
}

// Label binds name to the current PC. Binding the same label twice panics:
// the generator must use unique labels.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("program: duplicate label %q", name))
	}
	b.labels[name] = b.PC()
}

// EmitBranch appends a branch whose Target will be patched to the address
// of label when Finish is called.
func (b *Builder) EmitBranch(in isa.Inst, label string) isa.Addr {
	at := b.Emit(in)
	b.patches = append(b.patches, patch{at: at, label: label})
	return at
}

// LabelAddr returns the bound address of a label. It panics if the label is
// unbound; call it only after all Label calls.
func (b *Builder) LabelAddr(name string) isa.Addr {
	a, ok := b.labels[name]
	if !ok {
		panic(fmt.Sprintf("program: unbound label %q", name))
	}
	return a
}

// Finish resolves all pending branch patches and returns the Program. Entry
// is the address of label entry if bound, else 0. Finish panics on an
// unbound patch label.
func (b *Builder) Finish() *Program {
	for _, pt := range b.patches {
		addr, ok := b.labels[pt.label]
		if !ok {
			panic(fmt.Sprintf("program: unresolved label %q", pt.label))
		}
		b.code[pt.at].Target = addr
	}
	p := &Program{Name: b.name, Code: b.code}
	if e, ok := b.labels["entry"]; ok {
		p.Entry = e
	}
	return p
}
