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
	_, err := NewBackend("no-such-backend", Config{})
	if err == nil || !strings.Contains(err.Error(), "no-such-backend") {
		t.Fatalf("unknown backend error = %v", err)
	}
	if _, err := NewNamed(Config{}, "no-such-backend"); err == nil {
		t.Fatal("NewNamed accepted an unknown backend")
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

// TestHybridBackendMatchesBareHybrid keeps the retired hybrid adapter's
// classification as a reference for the Hybrid's own counts. Before each
// Update it recomputes the selector's choice, the components'
// disagreement and the correctness from G.Predict, P.Predict and the
// selector, as the adapter did, and the totals must equal Hybrid.Stats.
// The default backend must be that same Hybrid: driven through the
// Backend interface it ends in the same state, counts included.
func TestHybridBackendMatchesBareHybrid(t *testing.T) {
	cfg := Config{PHTEntries: 1 << 10, SelectorEntries: 1 << 9}.Canonical()
	h := NewHybrid(cfg.PHTEntries, cfg.SelectorEntries)
	var want HybridStats
	predict := func(pc isa.Addr) bool {
		want.Lookups++
		return h.Predict(pc)
	}
	update := func(pc isa.Addr, taken bool) {
		want.Updates++
		gp, pp := h.G.Predict(pc), h.P.Predict(pc)
		pred := pp
		if h.selector[uint64(pc)&h.selMask].taken() {
			want.GshareSelected++
			pred = gp
		} else {
			want.PAsSelected++
		}
		if gp != pp {
			want.Disagreements++
		}
		if pred == taken {
			want.Correct++
		}
		h.Update(pc, taken)
	}
	stream(predict, update, 20_000, 11)
	if h.Stats != want {
		t.Fatalf("hybrid stats %+v, reference %+v", h.Stats, want)
	}
	if want.GshareSelected == 0 || want.PAsSelected == 0 || want.Disagreements == 0 {
		t.Fatalf("vacuous stream: %+v", want)
	}

	b, err := NewBackend(BackendHybrid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*Hybrid); !ok {
		t.Fatalf("default backend is %T, want *Hybrid", b)
	}
	stream(b.Predict, b.Update, 20_000, 11)
	if !reflect.DeepEqual(b, h) {
		t.Fatal("default backend diverged from a bare Hybrid on the same stream")
	}
}

// TestBackendsPredictAndReset exercises every registered backend
// through the interface: it must predict, train, report stats in its
// own section of the union only, and Reset to a state bit-identical to
// fresh.
func TestBackendsPredictAndReset(t *testing.T) {
	cfg := Config{PHTEntries: 1 << 10, SelectorEntries: 1 << 9}
	for _, name := range Backends() {
		p, err := NewNamed(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := p.Dir
		stream(b.Predict, b.Update, 10_000, 5)
		s, zero := p.BackendStats(), BackendStats{}
		live := 0
		for _, on := range []bool{s.Hybrid != zero.Hybrid, s.TAGE != zero.TAGE, s.H2P != zero.H2P} {
			if on {
				live++
			}
		}
		if live != 1 {
			t.Fatalf("%s: %d nonzero stats sections after 10k updates, want 1: %+v", name, live, s)
		}
		b.Reset()
		fresh, err := NewBackend(name, cfg)
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

// TestNewNamedBackendSelection checks the full Predictor wiring
// dispatches to the named backend.
func TestNewNamedBackendSelection(t *testing.T) {
	cfg := Config{PHTEntries: 1 << 10, SelectorEntries: 1 << 9}
	for name, want := range map[string]string{
		BackendHybrid: "*bpred.Hybrid",
		BackendTAGE:   "*tage.Predictor",
		BackendH2P:    "*h2p.Predictor",
	} {
		p, err := NewNamed(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reflect.TypeOf(p.Dir).String(); got != want {
			t.Fatalf("backend %q built %s, want %s", name, got, want)
		}
	}
}
