package h2p

import (
	"reflect"
	"testing"

	"dpbp/internal/isa"
)

// fixedBase is a deliberately bad Base: it always predicts taken, so
// any branch that is ever not-taken generates base mispredicts for the
// filter to notice. Predict is pure, as the Base contract requires.
type fixedBase struct{ updates int }

func (b *fixedBase) Predict(isa.Addr) bool { return true }
func (b *fixedBase) Update(isa.Addr, bool) { b.updates++ }
func (b *fixedBase) Reset()                { b.updates = 0 }

func TestFilterClassification(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FilterEntries, cfg.H2PThreshold, cfg.FilterWindow = 64, 3, 32
	f := NewFilter(cfg)
	pc := isa.Addr(0x1040)
	if f.IsH2P(pc) {
		t.Fatal("fresh filter classified an unseen branch as H2P")
	}
	// Two misses: below threshold 3.
	f.Observe(pc, true)
	f.Observe(pc, true)
	if f.IsH2P(pc) {
		t.Fatal("classified H2P below threshold")
	}
	f.Observe(pc, true)
	if !f.IsH2P(pc) {
		t.Fatal("not classified H2P at threshold")
	}
	// Correct predictions alone never un-classify before aging...
	f.Observe(pc, false)
	if !f.IsH2P(pc) {
		t.Fatal("hit un-classified a branch without aging")
	}
	// ...but enough of them trigger window halving: 3 misses halve to 1.
	for i := 0; i < 40; i++ {
		f.Observe(pc, false)
	}
	if f.IsH2P(pc) {
		t.Fatal("aging failed to decay a now-easy branch below threshold")
	}
}

func TestFilterTagEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FilterEntries, cfg.FilterTagBits, cfg.H2PThreshold = 64, 8, 2
	f := NewFilter(cfg)
	a := isa.Addr(0x40)
	// Find a PC that shares a's slot but not its tag.
	var b isa.Addr
	for cand := a + 1; ; cand++ {
		if f.index(cand) == f.index(a) && f.tag(cand) != f.tag(a) {
			b = cand
			break
		}
	}
	f.Observe(a, true)
	f.Observe(a, true)
	if !f.IsH2P(a) {
		t.Fatal("a not classified H2P")
	}
	if f.IsH2P(b) {
		t.Fatal("b inherited a's H2P classification despite a different tag")
	}
	f.Observe(b, true) // evicts a
	if f.IsH2P(a) {
		t.Fatal("a still classified after b evicted its slot")
	}
}

// TestSideOverridesLearnedPattern drives a strictly alternating branch
// through a predictor whose base always says taken: the filter must
// classify it H2P, the side table must learn the alternation, and the
// override accuracy must beat the base's 50%.
func TestSideOverridesLearnedPattern(t *testing.T) {
	base := &fixedBase{}
	p := New(Config{FilterEntries: 64, FilterTagBits: 10, H2PThreshold: 4, FilterWindow: 64,
		SideEntries: 256, SideHistBits: 8, SideConfidence: 2}, base)
	pc := isa.Addr(0x80)
	const steps = 2000
	correct, baseCorrect := 0, 0
	for i := 0; i < steps; i++ {
		taken := i%2 == 0
		if p.Predict(pc) == taken {
			correct++
		}
		if taken {
			baseCorrect++
		}
		p.Update(pc, taken)
	}
	s := p.Stats
	if s.H2PBranches == 0 || s.Overrides == 0 {
		t.Fatalf("side predictor never engaged: %+v", s)
	}
	if correct <= baseCorrect {
		t.Fatalf("overrides did not improve on base: %d vs %d of %d", correct, baseCorrect, steps)
	}
	if correct < steps*8/10 {
		t.Fatalf("alternating H2P branch predicted %d/%d; side table not learning", correct, steps)
	}
	if base.updates != steps {
		t.Fatalf("base trained %d times, want %d", base.updates, steps)
	}
}

func TestStatsAlgebra(t *testing.T) {
	base := &fixedBase{}
	p := New(Config{FilterEntries: 64, FilterTagBits: 10, H2PThreshold: 2, FilterWindow: 64,
		SideEntries: 64, SideHistBits: 6, SideConfidence: 1}, base)
	rng := uint64(12345)
	for i := 0; i < 5000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pc := isa.Addr(rng >> 33 % 5 * 64)
		taken := rng>>62&1 == 0
		p.Predict(pc)
		p.Update(pc, taken)
	}
	s := p.Stats
	if s.Lookups != s.Updates {
		t.Fatalf("Lookups %d != Updates %d", s.Lookups, s.Updates)
	}
	if s.Overrides != s.OverrideCorrect+s.OverrideWrong {
		t.Fatalf("Overrides %d != %d+%d", s.Overrides, s.OverrideCorrect, s.OverrideWrong)
	}
	if s.Overrides > s.H2PBranches || s.H2PBranches > s.Updates {
		t.Fatalf("ordering violated: overrides %d, h2p %d, updates %d", s.Overrides, s.H2PBranches, s.Updates)
	}
	if s.H2PBranches == 0 || s.BaseMispredicts == 0 {
		t.Fatalf("vacuous run: %+v", s)
	}
}

func TestResetMatchesFresh(t *testing.T) {
	cfg := Config{FilterEntries: 64, FilterTagBits: 10, H2PThreshold: 2, FilterWindow: 32,
		SideEntries: 64, SideHistBits: 6, SideConfidence: 1}
	run := func(p *Predictor, seed uint64) []bool {
		rng := seed
		out := make([]bool, 0, 3000)
		for i := 0; i < 3000; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			pc := isa.Addr(rng >> 33 % 6 * 64)
			out = append(out, p.Predict(pc))
			p.Update(pc, rng>>61&3 == 0)
		}
		return out
	}
	used := New(cfg, &fixedBase{})
	run(used, 42)
	used.Reset()
	fresh := New(cfg, &fixedBase{})
	if !reflect.DeepEqual(used, fresh) {
		t.Fatal("reset predictor differs from fresh construction")
	}
	if !reflect.DeepEqual(run(used, 7), run(fresh, 7)) {
		t.Fatal("reset predictor's prediction stream diverged from fresh")
	}
	if !reflect.DeepEqual(used, fresh) {
		t.Fatal("reset predictor's final state diverged from fresh")
	}
}
