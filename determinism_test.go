package dpbp_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"dpbp"
)

// The paper's tables and figures are only trustworthy if the simulator
// is bit-deterministic: the same workload, seed, and configuration must
// yield identical Result structs and byte-identical rendered output, on
// every run and at every GOMAXPROCS setting. dpbplint's simdeterminism
// pass bans the constructs that break this statically; these tests are
// the dynamic backstop.

// detOptions keeps the regression runs fast while still exercising the
// profiler, the timing core, and the parallel experiment harness.
func detOptions() dpbp.ExperimentOptions {
	return dpbp.ExperimentOptions{
		Benchmarks:   []string{"gcc", "li", "mcf_2k"},
		TimingInsts:  30_000,
		ProfileInsts: 60_000,
		Parallelism:  4,
	}
}

// TestRunResultDeterminism runs one workload twice through the full
// microthread machine and requires structurally identical Results.
func TestRunResultDeterminism(t *testing.T) {
	w := dpbp.MustWorkload("gcc")
	cfg := dpbp.DefaultConfig()
	cfg.MaxInsts = 50_000

	r1 := dpbp.Run(w, cfg)
	r2 := dpbp.Run(w, cfg)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("identical runs diverged:\n  first:  %v\n  second: %v", r1, r2)
	}
}

// TestTable1ByteDeterminism renders Table 1 twice and requires identical
// bytes.
func TestTable1ByteDeterminism(t *testing.T) {
	first := table1Bytes(t)
	if second := table1Bytes(t); first != second {
		t.Errorf("Table 1 output differs between identical runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestFigure6ByteDeterminism renders Figure 6 twice and requires
// identical bytes.
func TestFigure6ByteDeterminism(t *testing.T) {
	first := figure6Bytes(t)
	if second := figure6Bytes(t); first != second {
		t.Errorf("Figure 6 output differs between identical runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestGOMAXPROCSDeterminism requires the experiment harness to produce
// the same bytes whether its fan-out actually runs in parallel or is
// serialised onto a single CPU.
func TestGOMAXPROCSDeterminism(t *testing.T) {
	parallel1 := table1Bytes(t)
	parallel6 := figure6Bytes(t)

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serial1 := table1Bytes(t)
	serial6 := figure6Bytes(t)

	if parallel1 != serial1 {
		t.Errorf("Table 1 output differs between GOMAXPROCS=%d and GOMAXPROCS=1", prev)
	}
	if parallel6 != serial6 {
		t.Errorf("Figure 6 output differs between GOMAXPROCS=%d and GOMAXPROCS=1", prev)
	}
}

// TestRunCacheByteDeterminism requires rendered output to be
// byte-identical whether runs are served from a shared cache or computed
// fresh — memoization must be observationally invisible.
func TestRunCacheByteDeterminism(t *testing.T) {
	fresh1 := table1Bytes(t)
	fresh6 := figure6Bytes(t)

	o := detOptions()
	o.Cache = dpbp.NewRunCache()
	for pass := 1; pass <= 2; pass++ { // second pass reads the warm cache
		res1, err := dpbp.Table1(context.Background(), o)
		if err != nil {
			t.Fatalf("cached Table1 pass %d: %v", pass, err)
		}
		s1, err := dpbp.Text(res1)
		if err != nil {
			t.Fatalf("Text: %v", err)
		}
		res6, err := dpbp.Figure6(context.Background(), o)
		if err != nil {
			t.Fatalf("cached Figure6 pass %d: %v", pass, err)
		}
		s6, err := dpbp.Text(res6)
		if err != nil {
			t.Fatalf("Text: %v", err)
		}
		if s1 != fresh1 {
			t.Errorf("pass %d: cached Table 1 bytes differ from fresh", pass)
		}
		if s6 != fresh6 {
			t.Errorf("pass %d: cached Figure 6 bytes differ from fresh", pass)
		}
	}
}

// TestBackendByteDeterminism extends the bit-determinism contract to
// every predictor backend and the shootout arena: identical
// runs under each backend must yield structurally identical Results,
// and the shootout must render the same bytes twice.
func TestBackendByteDeterminism(t *testing.T) {
	w := dpbp.MustWorkload("gcc")
	for _, name := range dpbp.PredictorBackends() {
		cfg := dpbp.DefaultConfig()
		cfg.MaxInsts = 30_000
		cfg.BPred = name
		r1 := dpbp.Run(w, cfg)
		r2 := dpbp.Run(w, cfg)
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("backend %q: identical runs diverged", name)
		}
	}

	first := shootoutBytes(t)
	if second := shootoutBytes(t); first != second {
		t.Errorf("shootout output differs between identical runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

func shootoutBytes(t *testing.T) string {
	t.Helper()
	o := detOptions()
	o.Benchmarks = []string{"gcc"}
	res, err := dpbp.Shootout(context.Background(), o)
	if err != nil {
		t.Fatalf("Shootout: %v", err)
	}
	s, err := dpbp.Text(res)
	if err != nil {
		t.Fatalf("Text: %v", err)
	}
	return s
}

func table1Bytes(t *testing.T) string {
	t.Helper()
	res, err := dpbp.Table1(context.Background(), detOptions())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	s, err := dpbp.Text(res)
	if err != nil {
		t.Fatalf("Text: %v", err)
	}
	return s
}

func figure6Bytes(t *testing.T) string {
	t.Helper()
	res, err := dpbp.Figure6(context.Background(), detOptions())
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	s, err := dpbp.Text(res)
	if err != nil {
		t.Fatalf("Text: %v", err)
	}
	return s
}
