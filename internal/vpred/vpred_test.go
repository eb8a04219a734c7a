package vpred

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dpbp/internal/isa"
)

func cfgSmall() Config { return Config{Entries: 256, ConfMax: 7, ConfThreshold: 4} }

// newFull returns a predictor whose table takes all cfg.Entries slots.
func newFull(cfg Config) *Predictor { return New(cfg, cfg.Entries) }

func TestConstantValue(t *testing.T) {
	p := newFull(cfgSmall())
	pc := isa.Addr(10)
	for i := 0; i < 10; i++ {
		p.Train(pc, 42)
	}
	if !p.Confident(pc) {
		t.Fatal("constant value not confident after 10 trainings")
	}
	for ahead := 1; ahead <= 5; ahead++ {
		v, ok := p.Predict(pc, ahead)
		if !ok || v != 42 {
			t.Errorf("Predict(ahead=%d) = %d,%v want 42", ahead, v, ok)
		}
	}
}

func TestStrideValue(t *testing.T) {
	p := newFull(cfgSmall())
	pc := isa.Addr(11)
	for i := 0; i < 12; i++ {
		p.Train(pc, isa.Word(100+i*8))
	}
	if !p.Confident(pc) {
		t.Fatal("stride sequence not confident")
	}
	// Last trained value was 100+11*8=188; 3 ahead = 188+24.
	v, ok := p.Predict(pc, 3)
	if !ok || v != 212 {
		t.Errorf("Predict(ahead=3) = %d,%v want 212", v, ok)
	}
}

func TestRandomNotConfident(t *testing.T) {
	p := newFull(cfgSmall())
	rng := rand.New(rand.NewSource(3))
	pc := isa.Addr(12)
	for i := 0; i < 200; i++ {
		p.Train(pc, isa.Word(rng.Int63()))
	}
	if p.Confident(pc) {
		t.Error("random values became confident")
	}
	if p.HitRate() > 0.05 {
		t.Errorf("hit rate %.3f on random values", p.HitRate())
	}
}

func TestStrideChangeResetsConfidence(t *testing.T) {
	p := newFull(cfgSmall())
	pc := isa.Addr(13)
	for i := 0; i < 10; i++ {
		p.Train(pc, isa.Word(i*4))
	}
	if !p.Confident(pc) {
		t.Fatal("precondition: confident")
	}
	p.Train(pc, 1000) // stride break
	if p.Confident(pc) {
		t.Error("confidence survived a stride break")
	}
	if c := p.Confidence(pc); c != 0 {
		t.Errorf("confidence = %d after break, want 0", c)
	}
}

func TestUnknownPC(t *testing.T) {
	p := newFull(cfgSmall())
	if _, ok := p.Predict(999, 1); ok {
		t.Error("prediction for untrained PC")
	}
	if p.Confident(999) {
		t.Error("confidence for untrained PC")
	}
	if p.Confidence(999) != 0 {
		t.Error("nonzero confidence for untrained PC")
	}
}

func TestTagConflictEvicts(t *testing.T) {
	p := newFull(Config{Entries: 16, ConfMax: 7, ConfThreshold: 4})
	a, b := isa.Addr(1), isa.Addr(17) // same slot, different tags
	for i := 0; i < 8; i++ {
		p.Train(a, 5)
	}
	if !p.Confident(a) {
		t.Fatal("precondition")
	}
	p.Train(b, 7)
	if p.Confident(a) {
		t.Error("evicted entry still confident")
	}
	if _, ok := p.Predict(a, 1); ok {
		t.Error("evicted entry still predicts")
	}
	if v, ok := p.Predict(b, 1); !ok || v != 7 {
		t.Errorf("new entry Predict = %d,%v", v, ok)
	}
}

func TestConfidenceSaturates(t *testing.T) {
	p := newFull(cfgSmall())
	pc := isa.Addr(14)
	for i := 0; i < 100; i++ {
		p.Train(pc, 9)
	}
	if c := p.Confidence(pc); c != 7 {
		t.Errorf("confidence = %d, want saturation at 7", c)
	}
}

// Property: after training on an arithmetic sequence of length >= threshold+2,
// the predictor is confident and k-ahead predictions are exact.
func TestStridePropertyQuick(t *testing.T) {
	f := func(start int32, stride int16, pcRaw uint16, kRaw uint8) bool {
		p := newFull(cfgSmall())
		pc := isa.Addr(pcRaw)
		k := int(kRaw%8) + 1
		for i := 0; i < 10; i++ {
			p.Train(pc, isa.Word(start)+isa.Word(stride)*isa.Word(i))
		}
		if !p.Confident(pc) {
			return false
		}
		want := isa.Word(start) + isa.Word(stride)*isa.Word(9+k)
		got, ok := p.Predict(pc, k)
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounting(t *testing.T) {
	p := newFull(cfgSmall())
	p.Train(5, 1)
	p.Train(5, 1)
	p.Train(5, 1)
	if p.Trains != 3 {
		t.Errorf("Trains = %d", p.Trains)
	}
	if p.Hits != 2 { // first train allocates, next two hit
		t.Errorf("Hits = %d", p.Hits)
	}
	p.Predict(5, 1)
	if p.Queries != 1 {
		t.Errorf("Queries = %d", p.Queries)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Entries <= 0 || c.ConfThreshold <= 0 || c.ConfMax < c.ConfThreshold {
		t.Errorf("bad default config %+v", c)
	}
}

// TestShortTableMatchesFullTable trains a table sized for a short program
// and the full Table 3 table on the same retirement stream, then queries
// both at every PC of the program and at PCs beyond it, some of which
// alias trained slots of the short table. Beyond the program each query
// must answer as an untrained PC of the full table does, and both tables
// must count the same Queries and Confidents.
func TestShortTableMatchesFullTable(t *testing.T) {
	cfg := DefaultConfig()
	const pcs = 147 // mcf_2k's length: a 256-slot table
	short, full := New(cfg, pcs), New(cfg, cfg.Entries)
	if len(short.entries) != 256 || len(full.entries) != cfg.Entries {
		t.Fatalf("table sizes %d and %d, want 256 and %d", len(short.entries), len(full.entries), cfg.Entries)
	}
	rng := rand.New(rand.NewSource(7))
	var seen [pcs]isa.Word
	for i := 0; i < 20_000; i++ {
		pc := isa.Addr(rng.Intn(pcs))
		seen[pc]++
		v := isa.Word(pc) * seen[pc] // stride pc per instance of pc
		if pc%3 == 0 {
			v = isa.Word(rng.Intn(4)) // mostly unpredictable
		}
		if a, b := short.TrainConfident(pc, v), full.TrainConfident(pc, v); a != b {
			t.Fatalf("TrainConfident(%d): short %v, full %v", pc, a, b)
		}
	}
	var queries []isa.Addr
	for pc := isa.Addr(0); pc < 4*256; pc++ {
		queries = append(queries, pc)
	}
	for _, k := range []isa.Addr{0, 1, 5, pcs - 1} {
		queries = append(queries, isa.Addr(cfg.Entries)+k, 3*isa.Addr(cfg.Entries)+k)
	}
	for _, pc := range queries {
		for ahead := 1; ahead <= 2; ahead++ {
			sv, sok := short.Predict(pc, ahead)
			fv, fok := full.Predict(pc, ahead)
			if sv != fv || sok != fok {
				t.Fatalf("Predict(%d, %d): short %d,%v, full %d,%v", pc, ahead, sv, sok, fv, fok)
			}
		}
		if short.Confident(pc) != full.Confident(pc) || short.Confidence(pc) != full.Confidence(pc) {
			t.Fatalf("pc %d: short confident %v (%d), full %v (%d)", pc,
				short.Confident(pc), short.Confidence(pc), full.Confident(pc), full.Confidence(pc))
		}
		if pc >= pcs {
			if _, ok := short.Predict(pc, 1); ok || short.Confident(pc) || short.Confidence(pc) != 0 {
				t.Fatalf("pc %d beyond the program answers as trained", pc)
			}
			full.Predict(pc, 1) // keep the two Queries counts in step
		}
	}
	if short.Queries != full.Queries || short.Confidents != full.Confidents {
		t.Errorf("short counted %d queries, %d confident; full %d, %d",
			short.Queries, short.Confidents, full.Queries, full.Confidents)
	}
	if short.Confidents == 0 {
		t.Error("no confident query: the stream trained nothing")
	}
}

// TestResetResizes checks that Reset sizes the table for each program in
// turn, shrinking and growing it within its storage, and leaves it equal
// to a new table of that size: no entry a previous program trained
// survives.
func TestResetResizes(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg, 1291)
	for _, tc := range []struct{ pcs, slots int }{{147, 256}, {1291, 2048}, {1 << 20, cfg.Entries}, {0, 1}, {1291, 2048}} {
		for pc := isa.Addr(0); pc < isa.Addr(len(p.entries)); pc++ {
			for i := 0; i < 8; i++ {
				p.Train(pc, 9)
			}
		}
		p.Reset(tc.pcs)
		fresh := New(cfg, tc.pcs)
		if len(p.entries) != tc.slots || p.mask != uint64(tc.slots-1) {
			t.Errorf("Reset(%d): %d slots, mask %#x; want %d", tc.pcs, len(p.entries), p.mask, tc.slots)
		}
		if !reflect.DeepEqual(p, fresh) {
			t.Errorf("Reset(%d) differs from a new predictor", tc.pcs)
		}
	}
}
