package uthread

import (
	"strings"
	"testing"

	"dpbp/internal/isa"
	"dpbp/internal/path"
)

func routineFor(id path.ID, spawn isa.Addr) *Routine {
	return &Routine{
		PathID:  id,
		SpawnPC: spawn,
		Insts: []MicroInst{{
			Inst:     isa.Inst{Op: isa.OpStorePCache, Src1: 4},
			BranchOp: isa.OpBnez,
		}},
	}
}

func TestMicroRAMInstallLookupRemove(t *testing.T) {
	m := NewMicroRAM(4)
	r := routineFor(1, 100)
	if !m.Install(r) {
		t.Fatal("install refused with space available")
	}
	if m.Lookup(1) != r {
		t.Error("lookup failed")
	}
	if m.Len() != 1 || m.Cap() != 4 {
		t.Errorf("len/cap = %d/%d", m.Len(), m.Cap())
	}
	m.Remove(1)
	if m.Lookup(1) != nil {
		t.Error("routine survived removal")
	}
	if m.Removals != 1 {
		t.Errorf("Removals = %d", m.Removals)
	}
	m.Remove(1) // no-op
	if m.Removals != 1 {
		t.Error("double-remove counted")
	}
}

func TestMicroRAMRefusesWhenFull(t *testing.T) {
	m := NewMicroRAM(2)
	m.Install(routineFor(1, 10))
	m.Install(routineFor(2, 20))
	if m.Install(routineFor(3, 30)) {
		t.Fatal("install accepted beyond capacity")
	}
	if m.Refusals != 1 {
		t.Errorf("Refusals = %d", m.Refusals)
	}
	// Replacing an existing path is allowed even at capacity.
	if !m.Install(routineFor(2, 25)) {
		t.Error("replacement refused at capacity")
	}
	if got := m.Lookup(2); got == nil || got.SpawnPC != 25 {
		t.Error("replacement did not take effect")
	}
}

func TestMicroRAMSpawnIndex(t *testing.T) {
	m := NewMicroRAM(8)
	a := routineFor(1, 50)
	b := routineFor(2, 50) // same spawn PC, different path
	c := routineFor(3, 60)
	m.Install(a)
	m.Install(b)
	m.Install(c)
	if got := m.SpawnCandidates(50); len(got) != 2 {
		t.Fatalf("candidates at 50 = %d, want 2", len(got))
	}
	if got := m.SpawnCandidates(60); len(got) != 1 || got[0] != c {
		t.Errorf("candidates at 60 wrong")
	}
	if got := m.SpawnCandidates(99); got != nil {
		t.Errorf("candidates at 99 = %v, want none", got)
	}
	// Removal updates the index.
	m.Remove(1)
	if got := m.SpawnCandidates(50); len(got) != 1 || got[0] != b {
		t.Errorf("index stale after removal: %v", got)
	}
	// Replacement with a different spawn PC moves the index entry.
	b2 := routineFor(2, 70)
	m.Install(b2)
	if got := m.SpawnCandidates(50); len(got) != 0 {
		t.Errorf("old spawn index entry survived replacement: %v", got)
	}
	if got := m.SpawnCandidates(70); len(got) != 1 || got[0] != b2 {
		t.Errorf("new spawn index entry missing")
	}
}

func TestMicroRAMRebuildFlag(t *testing.T) {
	m := NewMicroRAM(4)
	m.Install(routineFor(1, 10))
	if m.NeedsRebuild(1) {
		t.Error("fresh routine flagged for rebuild")
	}
	m.MarkRebuild(1)
	if !m.NeedsRebuild(1) {
		t.Error("rebuild flag not set")
	}
	if m.NeedsRebuild(1) {
		t.Error("NeedsRebuild did not clear the flag")
	}
	// Marking an absent path is a no-op.
	m.MarkRebuild(99)
	if m.NeedsRebuild(99) {
		t.Error("rebuild flag on absent path")
	}
	// Reinstalling clears a pending flag.
	m.MarkRebuild(1)
	m.Install(routineFor(1, 11))
	if m.NeedsRebuild(1) {
		t.Error("install did not clear the rebuild flag")
	}
}

func TestMicroRAMRoutines(t *testing.T) {
	m := NewMicroRAM(4)
	m.Install(routineFor(1, 10))
	m.Install(routineFor(2, 20))
	if got := m.Routines(); len(got) != 2 {
		t.Errorf("Routines() = %d entries", len(got))
	}
}

func TestExecutePanicsOnMalformedRoutine(t *testing.T) {
	env := &Env{
		ReadReg:      func(isa.Reg) isa.Word { return 0 },
		LoadMem:      func(isa.Addr) isa.Word { return 0 },
		PredictValue: func(isa.Addr, int) (isa.Word, bool) { return 0, false },
		PredictAddr:  func(isa.Addr, int) (isa.Word, bool) { return 0, false },
	}
	storePCache := MicroInst{Inst: isa.Inst{Op: isa.OpStorePCache, Src1: 64}, BranchOp: isa.OpBnez}
	addi := MicroInst{Inst: isa.Inst{Op: isa.OpAddi, Dst: 64}}
	// decode refuses a routine that does not end in its one Store_PCache,
	// so neither Execute nor the timing core's spawn can run one.
	for _, tc := range []struct {
		name  string
		insts []MicroInst
	}{
		{"empty", nil},
		{"missing Store_PCache", []MicroInst{addi}},
		{"Store_PCache not last", []MicroInst{storePCache, addi, storePCache}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if s, ok := recover().(string); !ok || !strings.Contains(s, "Store_PCache") {
					t.Errorf("decode panic = %q, want a Store_PCache message", s)
				}
			}()
			decode(tc.insts)
		})
	}
	t.Run("illegal op", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		r := &Routine{Insts: []MicroInst{{Inst: isa.Inst{Op: isa.OpStore}}, storePCache}}
		r.Slots, _ = decode(r.Insts)
		Execute(r, env)
	})
}

func TestExecuteIndirectWithoutTakenBit(t *testing.T) {
	// Indirect terminating branches always report taken with the
	// computed register target.
	r := &Routine{
		BranchPC: 40,
		Insts: []MicroInst{
			{Inst: isa.Inst{Op: isa.OpLdi, Dst: 64, Imm: 777}},
			{Inst: isa.Inst{Op: isa.OpStorePCache, Src1: 64}, BranchOp: isa.OpJmpInd},
		},
	}
	r.Slots, _ = decode(r.Insts)
	env := &Env{
		ReadReg:      func(isa.Reg) isa.Word { return 0 },
		LoadMem:      func(isa.Addr) isa.Word { return 0 },
		PredictValue: func(isa.Addr, int) (isa.Word, bool) { return 0, false },
		PredictAddr:  func(isa.Addr, int) (isa.Word, bool) { return 0, false },
	}
	res := Execute(r, env)
	if !res.Taken || res.Target != 777 {
		t.Errorf("indirect result = %+v", res)
	}
}
