package cpu

import (
	"reflect"
	"testing"

	"dpbp/internal/obs"
)

// tracedRun runs one microthreaded timing run with a tracer attached and
// returns both (test helper).
func tracedRun(t *testing.T, bench string, maxInsts uint64) (*Result, *obs.Tracer) {
	t.Helper()
	prog, err := programOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = maxInsts
	tr := obs.NewTracer()
	cfg.Obs = tr
	return Run(prog, cfg), tr
}

// TestTracingDoesNotPerturbResults holds the zero-interference contract:
// a traced run returns bit-identical statistics to an untraced one.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	prog, err := programOf("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = 120_000
	plain := Run(prog, cfg)
	cfg.Obs = obs.NewTracer()
	traced := Run(prog, cfg)
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestTracerEventStreamShape sanity-checks what the exporter will see:
// events are stamped with non-decreasing plausibility (within the run's
// cycle range) and occupancy samples were taken.
func TestTracerEventStreamShape(t *testing.T) {
	r, tr := tracedRun(t, "go", 150_000)
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	for _, ev := range evs {
		if ev.Cycle > r.Cycles+1 {
			t.Fatalf("event %s stamped at cycle %d beyond run end %d", ev.Kind, ev.Cycle, r.Cycles)
		}
	}
	samples := tr.Samples()
	if len(samples) < 2 {
		t.Fatalf("only %d occupancy samples over %d cycles", len(samples), r.Cycles)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle <= samples[i-1].Cycle {
			t.Fatal("samples not strictly increasing in cycle")
		}
	}
	for _, s := range samples {
		if s.ActiveCtxs < 0 || s.WindowOcc < 0 || s.FetchSlots < 0 {
			t.Fatalf("negative occupancy sample %+v", s)
		}
	}
	// Slack histograms cover exactly the early/late deliveries.
	reg := obs.NewRegistry()
	tr.AddTo(reg)
	for _, h := range reg.Histograms() {
		switch h.Name {
		case "trace.early_slack_cycles":
			if h.Hist.N() != r.Micro.Early {
				t.Errorf("early slack samples %d != Early %d", h.Hist.N(), r.Micro.Early)
			}
		case "trace.late_slack_cycles":
			if h.Hist.N() != r.Micro.Late {
				t.Errorf("late slack samples %d != Late %d", h.Hist.N(), r.Micro.Late)
			}
		}
	}
}
