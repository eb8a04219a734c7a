package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/exp"
	"dpbp/internal/report"
	"dpbp/internal/results"
	"dpbp/internal/runcache"
)

// small is a one-program Figure 7 workload at a short budget.
var small = &liveWorkload{
	benches:  []string{"li"},
	variants: 1,
	budget:   30_000,
	timed:    fig7Runs,
}

func TestLiveGateCountsInjectedFault(t *testing.T) {
	clean, err := small.rep(context.Background(), 0, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Ops != len(fig7Runs) || len(clean.Failures) != 0 {
		t.Fatalf("clean rep: %d ops, failures %v; want %d ops, none failed", clean.Ops, clean.Failures, len(fig7Runs))
	}

	for _, tc := range []struct {
		name    string
		perturb func(r *cpu.Result)
		want    string
	}{
		{"counter", func(r *cpu.Result) { r.Micro.Spawned++ }, "attempts"},
		{"stream", func(r *cpu.Result) { r.Insts-- }, "retired"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testHookResult = func(what string, r *cpu.Result) {
				if what == "li.0/prune" {
					tc.perturb(r)
				}
			}
			defer func() { testHookResult = nil }()
			rep, err := small.rep(context.Background(), 0, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Ops != clean.Ops || len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], tc.want) {
				t.Fatalf("%d ops, failures %v; want %d ops and one failure mentioning %q",
					rep.Ops, rep.Failures, clean.Ops, tc.want)
			}
			if !strings.HasPrefix(rep.Failures[0], "li.0/prune") {
				t.Errorf("failure %q not charged to li.0/prune", rep.Failures[0])
			}
		})
	}
}

func TestLiveDigestRepeatsAndTracksSeed(t *testing.T) {
	ctx := context.Background()
	a, err := small.rep(ctx, 3, newTracer(), false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := small.rep(ctx, 3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := small.rep(ctx, 4, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("same seed, traced and untraced: digests %s and %s differ", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 3 and 4 share digest %s: the seed did not reach the generator", a.Digest)
	}
	for _, m := range []string{"emu.ns_per_inst", "cpu.base_ns_per_inst", "synth.generate_ms"} {
		if a.Layers[m] <= 0 {
			t.Errorf("traced rep: %s = %v, want > 0", m, a.Layers[m])
		}
	}
	// Differences of short runs can fall either side of 0; they must exist.
	for _, m := range []string{"bpred.ns_per_branch", "cpu.core_ns_per_inst", "uthread.ns_per_inst"} {
		if _, ok := a.Layers[m]; !ok {
			t.Errorf("traced rep lacks %s", m)
		}
	}
}

func TestPaperAllGateCountsMissingAndBrokenRuns(t *testing.T) {
	o := exp.Options{Benchmarks: []string{"li"}, TimingInsts: 20_000, ProfileInsts: 20_000, Parallelism: 1, Cache: runcache.New()}
	sections, err := exp.Collect(context.Background(), "all", o)
	if err != nil {
		t.Fatal(err)
	}
	var f7 *exp.Figure7Result
	for _, s := range sections {
		if v, ok := s.Val.(*exp.Figure7Result); ok {
			f7 = v
		}
	}
	// Break the cached result's counter algebra on a copy.
	broken := *f7.Runs[0].Prune
	broken.Micro.Completed = broken.Micro.Spawned + 1
	f7.Runs[0].Prune = &broken

	var g gate
	if _, _, _, err := checkPaperAll(sections, o, &g, map[string]float64{}); err != nil {
		t.Fatal(err)
	}
	// Twenty programs, nine distinct runs each; only li ran, and one of
	// its runs is broken.
	if g.ops != 180 {
		t.Errorf("%d ops, want 180", g.ops)
	}
	if want := 19*9 + 1; len(g.failures) != want {
		t.Errorf("%d failures, want %d", len(g.failures), want)
	}
	for _, f := range g.failures {
		if strings.HasPrefix(f, "li/") && !strings.HasPrefix(f, "li/prune:") {
			t.Errorf("unexpected li failure %q", f)
		}
	}
}

// TestCollectAllMatchesCollect holds paper-all's traced and untraced
// section calls to exp.Collect("all"): same sections, same results.
func TestCollectAllMatchesCollect(t *testing.T) {
	ctx := context.Background()
	render := func(collect func(exp.Options) ([]results.Section, error)) string {
		o := exp.Options{Benchmarks: []string{"li", "gcc"}, TimingInsts: 20_000, ProfileInsts: 20_000,
			Parallelism: 2, Cache: runcache.New()}
		sections, err := collect(o)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := report.RenderSections(&b, "json", sections); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := render(func(o exp.Options) ([]results.Section, error) { return exp.Collect(ctx, "all", o) })
	for _, tr := range []*tracer{nil, newTracer()} {
		if got := render(func(o exp.Options) ([]results.Section, error) { return collectAll(ctx, o, tr) }); got != want {
			t.Errorf("collectAll (traced %v) renders %d bytes unlike exp.Collect's %d", tr != nil, len(got), len(want))
		}
	}
}

func TestResultVerdict(t *testing.T) {
	rep := func(digest string, failures ...string) *repReport {
		return &repReport{WallS: 1, Ops: 2, Failures: failures, Digest: digest,
			Sim: map[string]float64{"ipc_base_geomean": 1.5}}
	}
	metrics := []metric{{"wall_s", "s"}, {"ipc_base_geomean", "IPC"}}
	ref, paperRef := referenceDigests["no-uthread"], referenceDigests[paperAll]
	for _, tc := range []struct {
		name     string
		workload string
		seed     int64
		s        session
		correct  bool
		failed   int
	}{
		{"clean", "no-uthread", 0, session{plain: []*repReport{rep(ref), rep(ref)}}, true, 0},
		{"failed op", "no-uthread", 0, session{plain: []*repReport{rep(ref, "x: broke"), rep(ref)}}, false, 1},
		{"digest drift", "no-uthread", 7, session{plain: []*repReport{rep("a"), rep("b")}}, false, 0},
		{"seed-0 reference", "no-uthread", 0, session{plain: []*repReport{rep("a"), rep("a")}}, false, 0},
		{"other seed", "no-uthread", 7, session{plain: []*repReport{rep("a"), rep("a")}}, true, 0},
		{"paper-all other seed", paperAll, 7, session{plain: []*repReport{rep(paperRef), rep(paperRef)}}, true, 0},
		{"paper-all reference at other seed", paperAll, 7, session{plain: []*repReport{rep("a"), rep("a")}}, false, 0},
	} {
		out := tc.s.result(tc.workload, tc.seed, metrics)
		if out.Correct != tc.correct || out.Failed != tc.failed || out.Attempted != 4 {
			t.Errorf("%s: correct %v failed %d attempted %d (problems %v); want %v %d 4",
				tc.name, out.Correct, out.Failed, out.Attempted, out.problems, tc.correct, tc.failed)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metrics and workloads
// in step with the declaration the benchmark is judged by.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, tc := range []struct {
		kind string
		decl []struct{ Name, Unit string }
		have []metric
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(tc.decl) != len(tc.have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark reports %d", tc.kind, len(tc.decl), len(tc.have))
			continue
		}
		for i, d := range tc.decl {
			if d.Name != tc.have[i].name || d.Unit != tc.have[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					tc.kind, i, d.Name, d.Unit, tc.have[i].name, tc.have[i].unit)
			}
		}
	}
}
