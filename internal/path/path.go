// Package path implements the paper's control-flow path machinery
// (Section 3): a path is the sequence of the last n taken branches before
// a terminating branch, identified by a shift-XOR hash (Path_Id); the
// scope of a path is the set of instructions guaranteed to execute each
// time the path is taken.
package path

import (
	"math/bits"

	"dpbp/internal/isa"
)

// ID is a Path_Id: the shift-XOR hash of the addresses of the n taken
// branches prior to a terminating branch, combined with the terminating
// branch's own address so that the pair (history, branch) is identified.
type ID uint64

// TakenBranch records one taken control transfer in the path history.
type TakenBranch struct {
	// PC is the address of the taken branch.
	PC isa.Addr
	// Target is where it went.
	Target isa.Addr
	// Seq is the dynamic sequence number of the branch.
	Seq uint64
}

// hashStep folds one branch address into a rolling shift-XOR hash: the
// accumulator is rotated left by 3 and XORed with the (mixed) address.
// Rotation rather than a plain shift keeps all n addresses live in the
// hash for any n. Each address is pre-mixed with a multiply before the
// XOR: the paper's literal shift-XOR over sparse 64-bit Alpha addresses
// aliases negligibly, but our synthetic code addresses are dense small
// integers, so without mixing the XOR-linear combiner would collide
// pathologically. The mix restores the aliasing behaviour the paper's
// hash had on real address spaces.
func hashStep(h uint64, a isa.Addr) uint64 {
	return ((h << 3) | (h >> 61)) ^ mix(a)
}

// mix pre-conditions one address for the XOR combiner.
func mix(a isa.Addr) uint64 {
	x := uint64(a) * 0x9E3779B97F4A7C15
	return x ^ x>>29
}

// Hash computes the Path_Id for a terminating branch at term reached via
// the given taken branches (oldest first).
func Hash(branches []TakenBranch, term isa.Addr) ID {
	var h uint64
	for _, b := range branches {
		h = hashStep(h, b.PC)
	}
	return ID(hashStep(h, term))
}

// Tracker maintains the last n taken branches of the retirement (or fetch)
// stream and derives Path_Ids and scopes for terminating branches.
//
// Usage order matters: when a terminating branch retires, call ID/Scope
// first (the path is the n taken branches *prior* to the branch), then
// Observe it if it was taken.
type Tracker struct {
	n    int           //dpbp:reset-skip path length, fixed at construction
	ring []TakenBranch //dpbp:reset-skip stale entries are gated by cnt, which Reset zeroes
	head int           // index of oldest entry
	cnt  int

	// h is the rolling hash of the current window, maintained
	// incrementally by Observe so ID is O(1) instead of O(n). hashStep is
	// linear over GF(2) — fold(x1..xk) = XOR of rotl(mix(xi), 3*(k-i)) —
	// so evicting the oldest entry is XORing out rotl(mix(x1), rotN).
	h    uint64
	rotN int //dpbp:reset-skip 3*n mod 64, fixed at construction
}

// NewTracker returns a tracker for paths of length n.
func NewTracker(n int) *Tracker {
	if n < 1 {
		panic("path: tracker length must be >= 1")
	}
	return &Tracker{n: n, ring: make([]TakenBranch, n), rotN: 3 * n % 64}
}

// N returns the tracker's path length.
func (t *Tracker) N() int { return t.n }

// Observe pushes a taken control transfer into the history.
func (t *Tracker) Observe(b TakenBranch) {
	if t.cnt < t.n {
		t.h = hashStep(t.h, b.PC)
		t.ring[(t.head+t.cnt)%t.n] = b
		t.cnt++
		return
	}
	t.h = hashStep(t.h, b.PC) ^ bits.RotateLeft64(mix(t.ring[t.head].PC), t.rotN)
	t.ring[t.head] = b
	t.head = (t.head + 1) % t.n
}

// Full reports whether n taken branches have been observed, i.e. whether
// IDs produced now identify complete paths.
func (t *Tracker) Full() bool { return t.cnt == t.n }

// Branches returns the current history, oldest first. The slice is
// freshly allocated.
func (t *Tracker) Branches() []TakenBranch {
	out := make([]TakenBranch, t.cnt)
	for i := 0; i < t.cnt; i++ {
		out[i] = t.ring[(t.head+i)%t.n]
	}
	return out
}

// EndsWith reports whether the history ends with taken branches at the
// given PCs, oldest first. A prefix longer than the history never
// matches.
func (t *Tracker) EndsWith(prefix []isa.Addr) bool {
	if len(prefix) > t.cnt {
		return false
	}
	i := (t.head + t.cnt - len(prefix)) % t.n
	for _, pc := range prefix {
		if t.ring[i].PC != pc {
			return false
		}
		if i++; i == t.n {
			i = 0
		}
	}
	return true
}

// ID returns the Path_Id for a terminating branch at term given the
// current history.
func (t *Tracker) ID(term isa.Addr) ID {
	return ID(hashStep(t.h, term))
}

// Scope returns the scope size in instructions for a terminating branch at
// term: the total length of the n fall-through regions, each running from
// a taken branch's target to the next taken branch (inclusive), the last
// ending at the terminating branch. Per the paper, the block containing
// the oldest taken branch is not part of the scope.
func (t *Tracker) Scope(term isa.Addr) int {
	total := 0
	i := t.head
	for k := 0; k < t.cnt; k++ {
		start := t.ring[i].Target
		if i++; i == t.n {
			i = 0
		}
		end := term
		if k+1 < t.cnt {
			end = t.ring[i].PC
		}
		if end >= start {
			total += int(end-start) + 1
		}
	}
	return total
}

// Reset empties the tracker's history so it can be reused for another
// run, keeping the ring allocation.
func (t *Tracker) Reset() {
	t.head = 0
	t.cnt = 0
	t.h = 0
}
