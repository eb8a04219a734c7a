package path

import (
	"testing"
	"testing/quick"

	"dpbp/internal/isa"
)

func tb(pc, target isa.Addr) TakenBranch { return TakenBranch{PC: pc, Target: target} }

func TestHashDistinguishesOrder(t *testing.T) {
	a := Hash([]TakenBranch{tb(1, 0), tb(2, 0)}, 9)
	b := Hash([]TakenBranch{tb(2, 0), tb(1, 0)}, 9)
	if a == b {
		t.Error("hash must be order-sensitive")
	}
}

func TestHashDistinguishesTerm(t *testing.T) {
	h := []TakenBranch{tb(1, 0), tb(2, 0)}
	if Hash(h, 9) == Hash(h, 10) {
		t.Error("hash must include the terminating branch")
	}
}

func TestHashDeterministic(t *testing.T) {
	h := []TakenBranch{tb(3, 0), tb(7, 0), tb(11, 0)}
	if Hash(h, 5) != Hash(h, 5) {
		t.Error("hash not deterministic")
	}
}

func TestHashCollisionRateLow(t *testing.T) {
	// Distinct 4-branch paths over a small address space should almost
	// never collide in a 64-bit hash.
	seen := map[ID][4]isa.Addr{}
	collisions := 0
	for a := isa.Addr(0); a < 20; a++ {
		for b := isa.Addr(0); b < 20; b++ {
			for c := isa.Addr(0); c < 20; c++ {
				h := Hash([]TakenBranch{tb(a, 0), tb(b, 0), tb(c, 0)}, 99)
				key := [4]isa.Addr{a, b, c, 99}
				if prev, ok := seen[h]; ok && prev != key {
					collisions++
				}
				seen[h] = key
			}
		}
	}
	if collisions > 0 {
		t.Errorf("%d collisions among 8000 short paths", collisions)
	}
}

func TestTrackerRing(t *testing.T) {
	tr := NewTracker(3)
	if tr.Full() {
		t.Error("fresh tracker reports full")
	}
	tr.Observe(tb(1, 10))
	tr.Observe(tb(2, 20))
	if tr.Full() {
		t.Error("2 of 3 should not be full")
	}
	tr.Observe(tb(3, 30))
	if !tr.Full() {
		t.Error("should be full")
	}
	tr.Observe(tb(4, 40)) // evicts 1
	got := tr.Branches()
	if len(got) != 3 || got[0].PC != 2 || got[1].PC != 3 || got[2].PC != 4 {
		t.Errorf("Branches = %v", got)
	}
}

func TestTrackerIDMatchesHash(t *testing.T) {
	tr := NewTracker(2)
	tr.Observe(tb(5, 50))
	tr.Observe(tb(6, 60))
	tr.Observe(tb(7, 70)) // ring now [6 7]
	want := Hash([]TakenBranch{tb(6, 60), tb(7, 70)}, 99)
	if tr.ID(99) != want {
		t.Errorf("Tracker.ID = %x, want %x", tr.ID(99), want)
	}
}

func TestTrackerIDPartial(t *testing.T) {
	tr := NewTracker(4)
	tr.Observe(tb(5, 50))
	want := Hash([]TakenBranch{tb(5, 50)}, 9)
	if tr.ID(9) != want {
		t.Errorf("partial ID mismatch")
	}
}

func TestScope(t *testing.T) {
	// Taken branch at 10 -> 20; taken branch at 25 -> 40; term at 44.
	// Scope = [20..25] (6) + [40..44] (5) = 11.
	tr := NewTracker(2)
	tr.Observe(tb(10, 20))
	tr.Observe(tb(25, 40))
	if got := tr.Scope(44); got != 11 {
		t.Errorf("Scope = %d, want 11", got)
	}
}

func TestScopeSingle(t *testing.T) {
	tr := NewTracker(1)
	tr.Observe(tb(10, 20))
	// Scope = [20..30] inclusive = 11.
	if got := tr.Scope(30); got != 11 {
		t.Errorf("Scope = %d, want 11", got)
	}
}

func TestScopeBackwardTargetClamped(t *testing.T) {
	// A taken branch whose next taken branch is *behind* its target
	// cannot happen in straight-line execution, but the tracker must not
	// produce negative contributions if fed one.
	tr := NewTracker(2)
	tr.Observe(tb(10, 50))
	tr.Observe(tb(20, 30)) // 20 < 50: inconsistent segment
	if got := tr.Scope(35); got < 0 {
		t.Errorf("Scope = %d, negative", got)
	}
}

func TestScopeGrowsWithN(t *testing.T) {
	// Property: the same branch stream yields scope(n=4) <= scope(n=8).
	f := func(seed uint32) bool {
		t4, t8 := NewTracker(4), NewTracker(8)
		pc := isa.Addr(seed%100) + 1
		for i := 0; i < 16; i++ {
			b := tb(pc+isa.Addr(i*7), pc+isa.Addr(i*7)+1)
			t4.Observe(b)
			t8.Observe(b)
		}
		term := pc + 16*7
		return t4.Scope(term) <= t8.Scope(term)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewTrackerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTracker(0) did not panic")
		}
	}()
	NewTracker(0)
}

// TestEndsWithLongPaths checks the spawn-time Path_History screen for a
// path longer than 64 taken branches: after 100 taken branches with
// N = 100, the last 70 must match and any other 70-entry window must not.
func TestEndsWithLongPaths(t *testing.T) {
	tr := NewTracker(100)
	var pcs []isa.Addr
	for i := 0; i < 100; i++ {
		pc := isa.Addr(1000 + i)
		pcs = append(pcs, pc)
		tr.Observe(tb(pc, pc+1))
	}
	if !tr.EndsWith(pcs[30:]) {
		t.Error("the last 70 taken branches do not match")
	}
	if tr.EndsWith(pcs[29:99]) {
		t.Error("a 70-entry window one branch too old matches")
	}
	if !tr.EndsWith(nil) || !tr.EndsWith(pcs) {
		t.Error("the empty prefix or the whole history does not match")
	}
	// Wrap the ring: the history is now 1100..1199.
	for i := 100; i < 200; i++ {
		tr.Observe(tb(isa.Addr(1000+i), 0))
		pcs = append(pcs, isa.Addr(1000+i))
	}
	if !tr.EndsWith(pcs[130:]) || tr.EndsWith(pcs[30:100]) {
		t.Error("EndsWith wrong after the ring wrapped")
	}
	if tr.EndsWith(pcs[99:]) {
		t.Error("a prefix longer than the history matches")
	}
	short := NewTracker(100)
	short.Observe(tb(5, 6))
	if short.EndsWith([]isa.Addr{4, 5}) || !short.EndsWith([]isa.Addr{5}) {
		t.Error("EndsWith wrong on a partly filled history")
	}
}
