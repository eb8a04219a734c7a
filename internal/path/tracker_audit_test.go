package path

import (
	"math/rand"
	"testing"

	"dpbp/internal/isa"
)

// TestTrackerIncrementalMatchesRecompute audits the tracker's O(1) and
// ring-walking answers against their definitions over the materialised
// history. After every Observe, for every path length up to 64 (the
// total rotation 3n exceeds 64 and wraps from n = 22 on), ID(term) must
// equal Hash over Branches() and Scope(term) must equal scopeOf over it.
// Addresses drawn from 256 make about half the fall-through regions run
// backward and some span one instruction, and a Reset mid-stream
// restarts the ring at a head the first half had moved. This pins the
// eviction identity
// fold(x2..xk, t) = fold(x1..xk, t) XOR rotl(mix(x1), 3n mod 64)
// that replaced the O(n) recomputation, and Scope's wrapping index.
func TestTrackerIncrementalMatchesRecompute(t *testing.T) {
	terms := []isa.Addr{0, 1, 977, 1 << 20}
	for n := 1; n <= 64; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := NewTracker(n)
		for i := 0; i < 300; i++ {
			if i == 150+n%7 {
				tr.Reset()
			}
			tr.Observe(TakenBranch{
				PC:     isa.Addr(rng.Intn(1 << 8)),
				Target: isa.Addr(rng.Intn(1 << 8)),
			})
			term := terms[i%len(terms)]
			hist := tr.Branches()
			if got, want := tr.ID(term), Hash(hist, term); got != want {
				t.Fatalf("n=%d after %d observes, term %d: incremental ID %x != recomputed %x",
					n, i+1, term, got, want)
			}
			if got, want := tr.Scope(term), scopeOf(hist, term); got != want {
				t.Fatalf("n=%d after %d observes, term %d: Scope %d != recomputed %d",
					n, i+1, term, got, want)
			}
		}
	}
}

// scopeOf is Scope's definition over a history, oldest first: each taken
// branch's fall-through region runs from its target to the next taken
// branch, the last one to term, both ends included, and a region that
// would run backward counts nothing.
func scopeOf(hist []TakenBranch, term isa.Addr) int {
	total := 0
	for i, b := range hist {
		end := term
		if i+1 < len(hist) {
			end = hist[i+1].PC
		}
		if end >= b.Target {
			total += int(end-b.Target) + 1
		}
	}
	return total
}

// TestTrackerResetClearsRollingHash audits Reset mid-stream: a reset
// tracker must behave exactly like a fresh one, i.e. the rolling hash
// must not leak evicted history across the reset.
func TestTrackerResetClearsRollingHash(t *testing.T) {
	for _, n := range []int{1, 4, 22} {
		rng := rand.New(rand.NewSource(7))
		tr := NewTracker(n)
		for i := 0; i < 2*n+3; i++ {
			tr.Observe(TakenBranch{PC: isa.Addr(rng.Intn(1 << 16))})
		}
		tr.Reset()
		fresh := NewTracker(n)
		for i := 0; i < 2*n+3; i++ {
			b := TakenBranch{PC: isa.Addr(rng.Intn(1 << 16)), Target: isa.Addr(i)}
			tr.Observe(b)
			fresh.Observe(b)
			if got, want := tr.ID(99), fresh.ID(99); got != want {
				t.Fatalf("n=%d: reset tracker ID %x != fresh tracker ID %x after %d observes",
					n, got, want, i+1)
			}
		}
		if tr.ID(99) != Hash(tr.Branches(), 99) {
			t.Fatalf("n=%d: reset tracker diverges from recomputation", n)
		}
	}
}
