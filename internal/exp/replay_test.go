package exp

import (
	"reflect"
	"testing"

	"dpbp/internal/bpred"
	"dpbp/internal/program"
	"dpbp/internal/runcache"
	"dpbp/internal/synth"
)

// progFor generates one benchmark program for keying tests.
func progFor(t *testing.T, name string) *program.Program {
	t.Helper()
	p, err := synth.ProfileByName(name)
	if err != nil {
		t.Fatalf("ProfileByName(%q): %v", name, err)
	}
	return synth.Generate(p)
}

// TestOverlayKeyedByPredictor holds the one-pass-per-backend contract:
// one overlay per (front-end config, backend spec) pair, shared across
// requests, with distinct specs kept apart.
func TestOverlayKeyedByPredictor(t *testing.T) {
	o := quick("comp")
	o.Cache = runcache.New()
	o = o.withDefaults()
	prog := progFor(t, "comp")

	hybrid := bpred.Spec{}.Canonical()
	tage := bpred.Spec{Name: bpred.BackendTAGE}.Canonical()

	ov1, err := overlayFor(ctx(), o, prog, bpred.Config{}.Canonical(), hybrid)
	if err != nil {
		t.Fatalf("overlayFor: %v", err)
	}
	ov2, err := overlayFor(ctx(), o, prog, bpred.Config{}.Canonical(), hybrid)
	if err != nil {
		t.Fatalf("overlayFor (again): %v", err)
	}
	if ov1 != ov2 {
		t.Error("one (config, spec) pair built two overlays")
	}
	ov3, err := overlayFor(ctx(), o, prog, bpred.Config{}.Canonical(), tage)
	if err != nil {
		t.Fatalf("overlayFor (tage): %v", err)
	}
	if ov3 == ov1 {
		t.Error("distinct backend specs shared an overlay")
	}
}

// TestCachedMatchesCacheless runs one figure sweep through the run cache
// — where every timing run reads the benchmark's shared overlay — and
// without one — where every run simulates its predictor live — and
// requires identical results.
func TestCachedMatchesCacheless(t *testing.T) {
	cached := quick("comp")
	cached.Cache = runcache.New()
	cacheless := quick("comp")

	r1, err := Figure6(ctx(), cached)
	if err != nil {
		t.Fatalf("cached sweep: %v", err)
	}
	r2, err := Figure6(ctx(), cacheless)
	if err != nil {
		t.Fatalf("cacheless sweep: %v", err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("cached and cacheless results differ")
	}
}
