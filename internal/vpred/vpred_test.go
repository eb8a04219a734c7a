package vpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dpbp/internal/isa"
)

func cfgSmall() Config { return Config{Entries: 256, ConfMax: 7, ConfThreshold: 4} }

func TestConstantValue(t *testing.T) {
	p := New(cfgSmall())
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
	p := New(cfgSmall())
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
	p := New(cfgSmall())
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
	p := New(cfgSmall())
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
	p := New(cfgSmall())
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
	p := New(Config{Entries: 16, ConfMax: 7, ConfThreshold: 4})
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
	p := New(cfgSmall())
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
		p := New(cfgSmall())
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
	p := New(cfgSmall())
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
