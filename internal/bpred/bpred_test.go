package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dpbp/internal/isa"
)

func TestCounter2(t *testing.T) {
	c := counter2(0)
	if c.taken() {
		t.Error("0 should predict not-taken")
	}
	c = c.inc().inc()
	if !c.taken() {
		t.Error("2 should predict taken")
	}
	if c.inc().inc().inc() != 3 {
		t.Error("inc should saturate at 3")
	}
	if counter2(0).dec() != 0 {
		t.Error("dec should saturate at 0")
	}
	if counter2(1).update(true) != 2 || counter2(1).update(false) != 0 {
		t.Error("update direction wrong")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g := NewGshare(1 << 14)
	// Alternating T/NT is perfectly predictable from history.
	pc := isa.Addr(100)
	misses := 0
	for i := 0; i < 1000; i++ {
		taken := i%2 == 0
		if g.Predict(pc) != taken && i > 100 {
			misses++
		}
		g.Update(pc, taken)
	}
	if misses > 0 {
		t.Errorf("gshare failed to learn alternation: %d misses after warm-up", misses)
	}
}

func TestGshareRandomIsHard(t *testing.T) {
	g := NewGshare(1 << 14)
	rng := rand.New(rand.NewSource(1))
	pc := isa.Addr(100)
	misses := 0
	const n = 10000
	for i := 0; i < n; i++ {
		taken := rng.Intn(2) == 0
		if g.Predict(pc) != taken {
			misses++
		}
		g.Update(pc, taken)
	}
	rate := float64(misses) / n
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("gshare on random data missed %.2f; want near 0.5", rate)
	}
}

func TestPAsLearnsLocalPattern(t *testing.T) {
	p := NewPAs(1<<14, 1<<10)
	// Period-3 local pattern T T NT.
	pc := isa.Addr(200)
	misses := 0
	for i := 0; i < 3000; i++ {
		taken := i%3 != 2
		if p.Predict(pc) != taken && i > 300 {
			misses++
		}
		p.Update(pc, taken)
	}
	if misses > 10 {
		t.Errorf("PAs failed to learn period-3 pattern: %d misses", misses)
	}
}

func TestPAsSeparatesBranches(t *testing.T) {
	p := NewPAs(1<<14, 1<<10)
	// Two branches with opposite constant behaviour must not destructively
	// interfere through local histories.
	a, b := isa.Addr(1), isa.Addr(2)
	for i := 0; i < 200; i++ {
		p.Update(a, true)
		p.Update(b, false)
	}
	if !p.Predict(a) || p.Predict(b) {
		t.Error("PAs cross-branch interference")
	}
}

func TestHybridPicksBetterComponent(t *testing.T) {
	h := NewHybrid(1<<14, 1<<12)
	// A branch with a local period-4 pattern embedded in noisy global
	// history: PAs should win, and the hybrid should converge to PAs-level
	// accuracy.
	rng := rand.New(rand.NewSource(2))
	pcNoise := isa.Addr(999)
	pc := isa.Addr(300)
	misses := 0
	const n = 8000
	for i := 0; i < n; i++ {
		// Noise branches scramble gshare's global history.
		for j := 0; j < 4; j++ {
			h.Update(pcNoise+isa.Addr(j), rng.Intn(2) == 0)
		}
		taken := i%4 != 3
		if h.Predict(pc) != taken && i > n/2 {
			misses++
		}
		h.Update(pc, taken)
	}
	rate := float64(misses) / (n / 2)
	if rate > 0.10 {
		t.Errorf("hybrid miss rate %.3f on PAs-friendly branch; selector not working", rate)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(16)
	if _, ok := b.Lookup(5); ok {
		t.Error("empty BTB hit")
	}
	b.Update(5, 100)
	if tgt, ok := b.Lookup(5); !ok || tgt != 100 {
		t.Errorf("BTB lookup = %d,%v", tgt, ok)
	}
	// Conflicting tag evicts.
	b.Update(5+16, 200)
	if _, ok := b.Lookup(5); ok {
		t.Error("BTB should tag-miss after conflict eviction")
	}
	if tgt, _ := b.Lookup(5 + 16); tgt != 200 {
		t.Error("BTB conflict entry wrong")
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped")
	}
	r.Push(10)
	r.Push(20)
	r.Push(30)
	for _, want := range []isa.Addr{30, 20, 10} {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS popped past empty")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if got, _ := r.Pop(); got != 3 {
		t.Errorf("pop = %d, want 3", got)
	}
	if got, _ := r.Pop(); got != 2 {
		t.Errorf("pop = %d, want 2", got)
	}
	if _, ok := r.Pop(); ok {
		t.Error("overflowed entry should be lost")
	}
	if r.Depth() != 0 {
		t.Errorf("depth = %d, want 0", r.Depth())
	}
}

func TestRASPropertyBalanced(t *testing.T) {
	// With depth <= capacity, RAS behaves exactly like a stack.
	f := func(ops []bool) bool {
		r := NewRAS(64)
		var model []isa.Addr
		next := isa.Addr(1)
		for _, push := range ops {
			if push && len(model) < 64 {
				r.Push(next)
				model = append(model, next)
				next++
			} else if !push && len(model) > 0 {
				got, ok := r.Pop()
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTargetCacheLearnsPattern(t *testing.T) {
	tc := NewTargetCache(1 << 12)
	// Indirect branch cycling through 3 targets in a fixed sequence:
	// history-based indexing should learn it.
	pc := isa.Addr(50)
	targets := []isa.Addr{100, 200, 300}
	misses := 0
	for i := 0; i < 3000; i++ {
		want := targets[i%3]
		got, ok := tc.Lookup(pc)
		if i > 300 && (!ok || got != want) {
			misses++
		}
		tc.Update(pc, want)
	}
	if rate := float64(misses) / 2700; rate > 0.05 {
		t.Errorf("target cache miss rate %.3f on cyclic pattern", rate)
	}
}

func TestPredictorFacade(t *testing.T) {
	p := New(DefaultConfig())

	// Conditional, constant-taken: learns quickly.
	cond := isa.Inst{Op: isa.OpBnez, Src1: 4, Target: 77}
	var miss int
	for i := 0; i < 100; i++ {
		pred := p.Predict(10, cond)
		if p.Update(10, cond, pred, true, 77) && i > 10 {
			miss++
		}
	}
	if miss > 0 {
		t.Errorf("constant branch mispredicted %d times after warm-up", miss)
	}
	if p.Stats.CondPredicted != 100 {
		t.Errorf("CondPredicted = %d", p.Stats.CondPredicted)
	}

	// Call then ret: RAS should predict the return target exactly.
	call := isa.Inst{Op: isa.OpCall, Target: 500}
	pred := p.Predict(20, call)
	if !pred.Taken || pred.Target != 500 {
		t.Errorf("call prediction = %+v", pred)
	}
	p.Update(20, call, pred, true, 500)
	ret := isa.Inst{Op: isa.OpRet, Src1: isa.RRA}
	pred = p.Predict(510, ret)
	if pred.Target != 21 {
		t.Errorf("ret predicted %d, want 21 (RAS)", pred.Target)
	}
	if p.Update(510, ret, pred, true, 21) {
		t.Error("correct return counted as misprediction")
	}

	// Direct jump never mispredicts.
	jmp := isa.Inst{Op: isa.OpJmp, Target: 30}
	pred = p.Predict(25, jmp)
	if p.Update(25, jmp, pred, true, 30) {
		t.Error("direct jump mispredicted")
	}

	// Indirect: early encounters miss (history-indexed cache needs to
	// fill its hist-rotated slots), then a constant target sticks.
	ind := isa.Inst{Op: isa.OpJmpInd, Src1: 9}
	miss = 0
	for i := 0; i < 20; i++ {
		pred = p.Predict(40, ind)
		if p.Update(40, ind, pred, true, 600) && i > 10 {
			miss++
		}
	}
	if miss > 0 {
		t.Errorf("indirect constant target still missing after warm-up: %d", miss)
	}
	if p.Stats.IndPredicted != 20 || p.Stats.IndMispredicted < 1 {
		t.Errorf("indirect stats = %+v", p.Stats)
	}
}

func TestStatsTotals(t *testing.T) {
	s := Stats{CondPredicted: 10, CondMispredicted: 1, IndPredicted: 5, IndMispredicted: 2, RetPredicted: 3, RetMispredicted: 1}
	if s.Predictions() != 18 {
		t.Errorf("Predictions = %d", s.Predictions())
	}
	if s.Mispredictions() != 4 {
		t.Errorf("Mispredictions = %d", s.Mispredictions())
	}
}

func TestPow2Helpers(t *testing.T) {
	if pow2AtLeast(1000) != 1024 || pow2AtLeast(1024) != 1024 || pow2AtLeast(0) != 1 {
		t.Error("pow2AtLeast wrong")
	}
	if log2(1024) != 10 || log2(1) != 0 {
		t.Error("log2 wrong")
	}
}

// TestCounterTableMatchesReference drives a packed counter table and a
// plain []counter2 with the same random updates, a fill (what Reset does)
// and more updates; every counter must agree after each step. Sizes below
// four counters leave part of the last byte unused.
func TestCounterTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 4, 64, 1 << 10} {
		packed := newCounterTable(n, weaklyTaken)
		ref := make([]counter2, n)
		for i := range ref {
			ref[i] = weaklyTaken
		}
		check := func(step string) {
			t.Helper()
			for i, want := range ref {
				if got := packed.at(uint64(i)); got != want {
					t.Fatalf("n=%d %s: counter %d = %d, want %d", n, step, i, got, want)
				}
			}
		}
		update := func() {
			for k := 0; k < 20*n; k++ {
				i := uint64(rng.Intn(n))
				taken := rng.Intn(3) > 0
				packed.set(i, packed.at(i).update(taken))
				ref[i] = ref[i].update(taken)
			}
		}
		check("new")
		update()
		check("updated")
		packed.fill(weaklyTaken)
		for i := range ref {
			ref[i] = weaklyTaken
		}
		check("reset")
		update()
		check("updated after reset")
	}
}
