package uthread

import (
	"testing"

	"dpbp/internal/emu"
	"dpbp/internal/isa"
)

func entryAt(seq uint64, op isa.Op) *emu.Record {
	return &emu.Record{Seq: seq, Inst: isa.Inst{Op: op}}
}

func TestPRBPushAndLookup(t *testing.T) {
	p := NewPRB(4)
	if p.Len() != 0 || p.Cap() != 4 {
		t.Fatalf("fresh PRB wrong: len=%d cap=%d", p.Len(), p.Cap())
	}
	for seq := uint64(0); seq < 3; seq++ {
		p.Push(entryAt(seq, isa.OpAdd), false, false)
	}
	if p.Len() != 3 || p.YoungestSeq() != 2 || p.OldestSeq() != 0 {
		t.Fatalf("state wrong: len=%d young=%d old=%d", p.Len(), p.YoungestSeq(), p.OldestSeq())
	}
	if e := p.BySeq(1); e == nil || e.Seq != 1 {
		t.Error("BySeq(1) wrong")
	}
	if p.BySeq(3) != nil {
		t.Error("BySeq of future seq should be nil")
	}
}

func TestPRBWrapsAndForgets(t *testing.T) {
	p := NewPRB(4)
	for seq := uint64(0); seq < 10; seq++ {
		p.Push(entryAt(seq, isa.OpAdd), false, false)
	}
	if p.Len() != 4 || p.OldestSeq() != 6 || p.YoungestSeq() != 9 {
		t.Fatalf("wrap state wrong: len=%d old=%d young=%d", p.Len(), p.OldestSeq(), p.YoungestSeq())
	}
	if p.BySeq(5) != nil {
		t.Error("pushed-out entry still visible")
	}
	for seq := uint64(6); seq <= 9; seq++ {
		if e := p.BySeq(seq); e == nil || e.Seq != seq {
			t.Errorf("BySeq(%d) wrong", seq)
		}
	}
}

func TestPRBOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order push did not panic")
		}
	}()
	p := NewPRB(4)
	p.Push(entryAt(0, isa.OpAdd), false, false)
	p.Push(entryAt(2, isa.OpAdd), false, false)
}

func TestPRBStartsAtNonZeroSeq(t *testing.T) {
	p := NewPRB(4)
	p.Push(entryAt(100, isa.OpAdd), false, false)
	p.Push(entryAt(101, isa.OpAdd), false, false)
	if p.OldestSeq() != 100 || p.YoungestSeq() != 101 {
		t.Errorf("old=%d young=%d", p.OldestSeq(), p.YoungestSeq())
	}
	if p.BySeq(99) != nil {
		t.Error("BySeq(99) should be nil")
	}
}
