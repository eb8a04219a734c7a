package tage

import (
	"reflect"
	"testing"

	"dpbp/internal/isa"
)

// lcg is a tiny deterministic generator for test stimulus.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = lcg(uint64(*r)*6364136223846793005 + 1442695040888963407)
	return uint64(*r) >> 33
}

func foldNaive(hist []uint64, origLen, compLen int) uint64 {
	var comp uint64
	for i := 0; i < origLen && i < len(hist); i++ {
		comp ^= hist[i] << (i % compLen)
	}
	return comp & ((uint64(1) << compLen) - 1)
}

// TestFoldedMatchesNaive pins the incremental folded-history update
// against the definition in the package comment: comp == XOR over
// i < origLen of bit(i) << (i mod compLen), across window/width
// combinations covering L < C, L == C, L a multiple of C, and L % C != 0.
func TestFoldedMatchesNaive(t *testing.T) {
	cases := []struct{ origLen, compLen int }{
		{3, 8},   // window shorter than the register
		{8, 8},   // equal
		{16, 8},  // exact multiple
		{13, 5},  // non-multiple
		{64, 9},  // tag-sized register over a long window
		{97, 11}, // index-sized register, prime window length
	}
	for _, tc := range cases {
		f := newFolded(tc.origLen, tc.compLen)
		var hist []uint64 // hist[0] = most recent
		rng := lcg(uint64(tc.origLen)<<8 | uint64(tc.compLen))
		for step := 0; step < 500; step++ {
			b := rng.next() & 1
			var old uint64
			if len(hist) >= tc.origLen {
				old = hist[tc.origLen-1]
			}
			f.push(b, old)
			hist = append([]uint64{b}, hist...)
			if want := foldNaive(hist, tc.origLen, tc.compLen); f.comp != want {
				t.Fatalf("L=%d C=%d step %d: incremental comp %#x, naive %#x",
					tc.origLen, tc.compLen, step, f.comp, want)
			}
		}
	}
}

// TestHistLengthsGeometric checks the history series is strictly
// increasing and pinned at both ends.
func TestHistLengthsGeometric(t *testing.T) {
	cfg := DefaultConfig()
	lens := histLengths(cfg)
	if len(lens) != cfg.Tables {
		t.Fatalf("got %d lengths for %d tables", len(lens), cfg.Tables)
	}
	if lens[0] != cfg.MinHistory || lens[len(lens)-1] != cfg.MaxHistory {
		t.Fatalf("series %v not pinned to [%d, %d]", lens, cfg.MinHistory, cfg.MaxHistory)
	}
	for i := 1; i < len(lens); i++ {
		if lens[i] <= lens[i-1] {
			t.Fatalf("series %v not strictly increasing at %d", lens, i)
		}
	}
}

// trainLoop feeds a deterministic branch stream through the predictor:
// a few strongly biased PCs plus one history-dependent branch.
func trainLoop(p *Predictor, steps int, seed uint64) []bool {
	rng := lcg(seed)
	preds := make([]bool, 0, steps)
	var phase uint64
	for i := 0; i < steps; i++ {
		pc := isa.Addr(rng.next() % 7 * 64)
		var taken bool
		switch pc % 3 {
		case 0:
			taken = true
		case 1:
			taken = phase&3 == 0
		default:
			taken = rng.next()&7 == 0
		}
		phase++
		preds = append(preds, p.Predict(pc))
		p.Update(pc, taken)
	}
	return preds
}

// TestTagAliasing checks that two PCs sharing a tagged-table index but
// differing in tag do not hit each other's entries: after allocating for
// one PC, the other still falls through to the bimodal provider.
func TestTagAliasing(t *testing.T) {
	cfg := Config{BimodalEntries: 64, Tables: 2, TableEntries: 64,
		TagBits: 8, MinHistory: 4, MaxHistory: 8, UDecayInterval: 64 << 10}
	p := New(cfg)

	// Two PCs that collide in every tagged table index but have
	// different tags. With zeroed history, index and tag depend only on
	// the PC, so collide when (pc ^ pc>>6) agree mod 64 and differ in
	// low tag bits. pc and pc+64*65 share index bits: (pc+64*65)^((pc+64*65)>>6)
	// is harder to reason about, so search for a pair instead.
	base := isa.Addr(0x123)
	var alias isa.Addr
	found := false
	for cand := base + 1; cand < base+1<<16; cand++ {
		if p.tables[0].index(cand) == p.tables[0].index(base) &&
			p.tables[1].index(cand) == p.tables[1].index(base) &&
			p.tables[0].tag(cand) != p.tables[0].tag(base) &&
			p.tables[1].tag(cand) != p.tables[1].tag(base) {
			alias, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no index-colliding, tag-differing PC pair found")
	}

	// Force an allocation for base: mispredict it once from the bimodal
	// provider. Bimodal starts weakly taken, so a not-taken outcome
	// mispredicts and allocates in a tagged table.
	p.Update(base, false)
	if p.Stats.Allocations == 0 {
		t.Fatal("expected an allocation after a bimodal mispredict")
	}
	if lk := p.lookup(base); lk.provider < 0 {
		t.Fatal("base PC did not get a tagged provider")
	}
	if lk := p.lookup(alias); lk.provider >= 0 {
		t.Fatalf("alias PC %#x hit base PC %#x's tagged entry despite differing tag", alias, base)
	}
}

// TestUsefulnessDecay checks the periodic decay fires exactly every
// UDecayInterval updates and halves usefulness counters.
func TestUsefulnessDecay(t *testing.T) {
	cfg := Config{BimodalEntries: 64, Tables: 2, TableEntries: 64,
		TagBits: 8, MinHistory: 4, MaxHistory: 8, UDecayInterval: 250}
	p := New(cfg)
	p.tables[1].entries[17].u = 3
	trainLoop(p, 2*cfg.UDecayInterval, 7)
	if want := uint64(2); p.Stats.UDecays != want {
		t.Fatalf("UDecays = %d after %d updates with interval %d, want %d",
			p.Stats.UDecays, 2*cfg.UDecayInterval, cfg.UDecayInterval, want)
	}
	// 3 halves to 1 after one decay, 0 after two — unless training
	// raised it in between; seed the counter beyond any train index by
	// checking a fresh predictor's untouched slot instead.
	q := New(cfg)
	q.tables[1].entries[63].u = 3
	for i := 0; i < cfg.UDecayInterval; i++ {
		q.Update(isa.Addr(0), true) // trains index 0 territory only
	}
	if got := q.tables[1].entries[63].u; got != 1 {
		t.Fatalf("u=3 decayed to %d after one interval, want 1", got)
	}
}

// TestResetMatchesFresh checks a reset predictor is bit-identical to a
// fresh one: same internal state and same prediction stream.
func TestResetMatchesFresh(t *testing.T) {
	cfg := Config{BimodalEntries: 256, Tables: 3, TableEntries: 128,
		TagBits: 7, MinHistory: 4, MaxHistory: 32, UDecayInterval: 300}
	used := New(cfg)
	trainLoop(used, 5000, 42)
	used.Reset()
	fresh := New(cfg)
	if !reflect.DeepEqual(used, fresh) {
		t.Fatal("reset predictor differs from fresh construction")
	}
	p1 := trainLoop(used, 5000, 99)
	p2 := trainLoop(fresh, 5000, 99)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("reset predictor's prediction stream diverged from fresh")
	}
	if !reflect.DeepEqual(used, fresh) {
		t.Fatal("reset predictor's final state diverged from fresh")
	}
}

// TestStatsAlgebra checks the conservation laws the oracle relies on.
func TestStatsAlgebra(t *testing.T) {
	p := New(Config{BimodalEntries: 128, Tables: 4, TableEntries: 64,
		TagBits: 8, MinHistory: 4, MaxHistory: 32, UDecayInterval: 500})
	trainLoop(p, 10_000, 3)
	s := p.Stats
	if s.Lookups != s.Updates {
		t.Fatalf("Lookups %d != Updates %d", s.Lookups, s.Updates)
	}
	if s.ProviderTagged+s.ProviderBimodal != s.Updates {
		t.Fatalf("provider split %d+%d != updates %d", s.ProviderTagged, s.ProviderBimodal, s.Updates)
	}
	if s.Correct+s.Mispredicts != s.Updates {
		t.Fatalf("outcome split %d+%d != updates %d", s.Correct, s.Mispredicts, s.Updates)
	}
	if s.Allocations+s.AllocFailed > s.Mispredicts {
		t.Fatalf("allocations %d+%d exceed mispredicts %d", s.Allocations, s.AllocFailed, s.Mispredicts)
	}
	if want := s.Updates / 500; s.UDecays != want {
		t.Fatalf("UDecays %d, want %d", s.UDecays, want)
	}
	if s.ProviderTagged == 0 || s.Allocations == 0 {
		t.Fatal("vacuous run: no tagged providers or allocations exercised")
	}
}

// TestLearnsHistoryPattern checks the tagged tables earn their keep: a
// strictly alternating branch (bimodal-hostile, trivially history-
// predictable) must end up nearly perfectly predicted.
func TestLearnsHistoryPattern(t *testing.T) {
	p := New(Config{BimodalEntries: 256, Tables: 4, TableEntries: 256,
		TagBits: 9, MinHistory: 2, MaxHistory: 16, UDecayInterval: 64 << 10})
	pc := isa.Addr(0x40)
	correct := 0
	const steps = 4000
	for i := 0; i < steps; i++ {
		taken := i%2 == 0
		if p.Predict(pc) == taken {
			correct++
		}
		p.Update(pc, taken)
	}
	// Bimodal alone would hover near 50%; demand the tail is learned.
	if correct < steps*9/10 {
		t.Fatalf("alternating branch predicted %d/%d; history tables not engaged", correct, steps)
	}
}
