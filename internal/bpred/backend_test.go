package bpred

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"dpbp/internal/isa"
)

func TestBackendsRegistered(t *testing.T) {
	names := Backends()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Backends() not sorted: %v", names)
	}
	want := map[string]bool{BackendHybrid: true, BackendTAGE: true, BackendH2P: true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing backends %v in %v", want, names)
	}
}

func TestSpecCanonical(t *testing.T) {
	c := (Spec{}).Canonical()
	if c.Name != BackendHybrid {
		t.Fatalf("zero Spec canonicalized to backend %q, want %q", c.Name, BackendHybrid)
	}
	if c.TAGE.Tables == 0 || c.H2P.FilterEntries == 0 {
		t.Fatalf("sizing sections not canonicalized: %+v", c)
	}
	if again := c.Canonical(); again != c {
		t.Fatalf("Canonical not idempotent: %+v vs %+v", c, again)
	}
}

func TestConfigCanonical(t *testing.T) {
	if got, want := (Config{}).Canonical(), DefaultConfig(); got != want {
		t.Fatalf("zero Config canonicalized to %+v, want defaults %+v", got, want)
	}
	// A partial config must keep its set field and default the rest —
	// the latent bug this guards against built 1-entry tables for every
	// unset field.
	partial := Config{BTBEntries: 512}
	c := partial.Canonical()
	if c.BTBEntries != 512 || c.PHTEntries != DefaultConfig().PHTEntries {
		t.Fatalf("partial Config canonicalized to %+v", c)
	}
	if again := c.Canonical(); again != c {
		t.Fatal("Canonical not idempotent")
	}
}

func TestNewBackendUnknownName(t *testing.T) {
	_, err := NewBackend(Spec{Name: "no-such-backend"}, Config{})
	if err == nil || !strings.Contains(err.Error(), "no-such-backend") {
		t.Fatalf("unknown backend error = %v", err)
	}
	if _, err := NewFromSpec(Config{}, Spec{Name: "no-such-backend"}); err == nil {
		t.Fatal("NewFromSpec accepted an unknown backend")
	}
}

// stream drives a deterministic (pc, taken) sequence through predict
// and update, returning the predictions.
func stream(predict func(isa.Addr) bool, update func(isa.Addr, bool), n int, seed uint64) []bool {
	rng := seed
	out := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		pc := isa.Addr(rng >> 33 % 9 * 4)
		taken := rng>>60&7 < 5
		out = append(out, predict(pc))
		update(pc, taken)
	}
	return out
}

// TestHybridBackendMatchesBareHybrid pins the tentpole's byte-identity
// requirement at the unit level: the NewBackend-built hybrid backend must
// produce the same prediction stream and the same internal Hybrid state
// as a bare Hybrid driven directly.
func TestHybridBackendMatchesBareHybrid(t *testing.T) {
	cfg := Config{PHTEntries: 1 << 10, SelectorEntries: 1 << 9}.Canonical()
	bare := NewHybrid(cfg.PHTEntries, cfg.SelectorEntries)
	b, err := NewBackend(Spec{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1 := stream(bare.Predict, bare.Update, 20_000, 11)
	p2 := stream(b.Predict, b.Update, 20_000, 11)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("hybrid backend prediction stream diverged from bare Hybrid")
	}
	hb, ok := b.(*hybridBackend)
	if !ok {
		t.Fatalf("default backend is %T, want *hybridBackend", b)
	}
	if !reflect.DeepEqual(bare, hb.h) {
		t.Fatal("hybrid backend internal state diverged from bare Hybrid")
	}
	var s BackendStats
	b.Snapshot(&s)
	if s.Hybrid.Lookups != 20_000 || s.Hybrid.Updates != 20_000 {
		t.Fatalf("hybrid stats not counted: %+v", s.Hybrid)
	}
	if s.Hybrid.GshareSelected+s.Hybrid.PAsSelected != s.Hybrid.Updates {
		t.Fatalf("selector split %d+%d != updates %d",
			s.Hybrid.GshareSelected, s.Hybrid.PAsSelected, s.Hybrid.Updates)
	}
	if s.TAGE != (BackendStats{}).TAGE || s.H2P != (BackendStats{}).H2P {
		t.Fatalf("hybrid snapshot touched other sections: %+v", s)
	}
}

// TestBackendsPredictAndReset exercises every registered backend
// through the interface: it must predict, train, snapshot stats into
// its own section, and Reset to a state bit-identical to fresh.
func TestBackendsPredictAndReset(t *testing.T) {
	cfg := Config{PHTEntries: 1 << 10, SelectorEntries: 1 << 9}
	for _, name := range Backends() {
		spec := Spec{Name: name}
		b, err := NewBackend(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stream(b.Predict, b.Update, 10_000, 5)
		var s BackendStats
		b.Snapshot(&s)
		if s == (BackendStats{}) {
			t.Fatalf("%s: snapshot after 10k updates is all-zero", name)
		}
		b.Reset()
		fresh, err := NewBackend(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b, fresh) {
			t.Fatalf("%s: reset backend differs from fresh", name)
		}
		if !reflect.DeepEqual(stream(b.Predict, b.Update, 10_000, 9),
			stream(fresh.Predict, fresh.Update, 10_000, 9)) {
			t.Fatalf("%s: reset backend prediction stream diverged from fresh", name)
		}
	}
}

// TestNewFromSpecBackendSelection checks the full Predictor wiring
// dispatches to the named backend.
func TestNewFromSpecBackendSelection(t *testing.T) {
	cfg := Config{PHTEntries: 1 << 10, SelectorEntries: 1 << 9}
	for name, want := range map[string]string{
		BackendHybrid: "*bpred.hybridBackend",
		BackendTAGE:   "*bpred.tageBackend",
		BackendH2P:    "*bpred.h2pBackend",
	} {
		p, err := NewFromSpec(cfg, Spec{Name: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reflect.TypeOf(p.Dir).String(); got != want {
			t.Fatalf("backend %q built %s, want %s", name, got, want)
		}
	}
}
