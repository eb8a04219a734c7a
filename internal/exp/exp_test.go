package exp

import (
	"context"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dpbp/internal/bpred"
	"dpbp/internal/obs"
	"dpbp/internal/results"
	"dpbp/internal/runcache"
	"dpbp/internal/synth"
)

// quick returns small options for test speed.
func quick(benches ...string) Options {
	return Options{Benchmarks: benches, TimingInsts: 120_000, ProfileInsts: 150_000}
}

func ctx() context.Context { return context.Background() }

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Benchmarks) != 20 {
		t.Errorf("default benchmarks = %d, want 20", len(o.Benchmarks))
	}
	if o.TimingInsts == 0 || o.ProfileInsts == 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
}

// TestBadBenchmarkName: an unknown name and a name listed twice are both
// refused before any run, with an error that names the culprit. A
// repeated name would otherwise count twice in every geomean.
func TestBadBenchmarkName(t *testing.T) {
	for _, names := range [][]string{{"nope"}, {"comp", "comp"}} {
		bad := names[len(names)-1]
		check := func(section string, err error) {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(bad)) {
				t.Errorf("%s(%v) = %v, want an error naming %q", section, names, err, bad)
			}
		}
		_, err := Table1(ctx(), quick(names...))
		check("Table1", err)
		_, err = Figure6(ctx(), quick(names...))
		check("Figure6", err)
		_, _, err = RunFigure7Set(ctx(), quick(names...))
		check("RunFigure7Set", err)
		_, err = Perfect(ctx(), quick(names...))
		check("Perfect", err)
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(ctx(), quick("comp", "li"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0].Bench != "comp" {
		t.Fatalf("rows wrong: %+v", r.Rows)
	}
	if len(r.Errors) != 0 {
		t.Fatalf("unexpected errors: %+v", r.Errors)
	}
	for _, row := range r.Rows {
		if len(row.ByN) != len(r.PathLengths) {
			t.Fatalf("%s: %d cells for %d path lengths", row.Bench, len(row.ByN), len(r.PathLengths))
		}
		for i, cell := range row.ByN {
			if cell.N != r.PathLengths[i] {
				t.Errorf("%s cell %d: N=%d, want %d", row.Bench, i, cell.N, r.PathLengths[i])
			}
			if len(cell.Difficult) != len(r.Thresholds) {
				t.Errorf("%s n=%d: %d difficult counts for %d thresholds",
					row.Bench, cell.N, len(cell.Difficult), len(r.Thresholds))
			}
			if cell.UniquePaths == 0 {
				t.Errorf("%s n=%d: no unique paths", row.Bench, cell.N)
			}
		}
	}
}

func TestTable2Shape(t *testing.T) {
	r, err := Table2(ctx(), quick("go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if len(row.ByT) != len(r.Thresholds) {
		t.Fatalf("%d blocks for %d thresholds", len(row.ByT), len(r.Thresholds))
	}
	for i, blk := range row.ByT {
		if blk.T != r.Thresholds[i] {
			t.Errorf("block %d: T=%v, want %v", i, blk.T, r.Thresholds[i])
		}
		if len(blk.ByN) != len(r.PathLengths) {
			t.Errorf("block %d: %d coverages for %d path lengths", i, len(blk.ByN), len(r.PathLengths))
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	r, err := Figure6(ctx(), quick("comp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.BaselineIPC <= 0 {
		t.Error("baseline IPC missing")
	}
	for _, n := range PathLengths {
		if row.SpeedupByN[n] <= 0 {
			t.Errorf("n=%d speedup missing", n)
		}
		if r.Geomean[n] <= 0 {
			t.Errorf("n=%d geomean missing", n)
		}
	}
}

func TestFigure789SharedRuns(t *testing.T) {
	runs, runErrs, err := RunFigure7Set(ctx(), quick("comp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runErrs) != 0 {
		t.Fatalf("unexpected run errors: %+v", runErrs)
	}
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	r := runs[0]
	if r.Base == nil || r.NoPrune == nil || r.Prune == nil || r.Overhead == nil {
		t.Fatal("missing runs")
	}
	if f8 := Figure8FromRuns(runs); len(f8.Runs) != 1 {
		t.Error("fig8 from runs malformed")
	}
	if f9 := Figure9FromRuns(runs); len(f9.Runs) != 1 {
		t.Error("fig9 from runs malformed")
	}
}

func TestPerfect(t *testing.T) {
	r, err := Perfect(ctx(), quick("comp"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Speedup <= 1 {
		t.Errorf("perfect speedup %.2f <= 1", r.Rows[0].Speedup)
	}
	if r.GeomeanSpeedup <= 1 {
		t.Errorf("geomean %.2f <= 1", r.GeomeanSpeedup)
	}
}

func TestParallelismDeterminism(t *testing.T) {
	o1 := quick("comp", "li", "perl")
	o1.Parallelism = 1
	o3 := quick("comp", "li", "perl")
	o3.Parallelism = 3
	a, err := Figure6(ctx(), o1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure6(ctx(), o3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].Bench != b.Rows[i].Bench || a.Rows[i].BaselineIPC != b.Rows[i].BaselineIPC {
			t.Errorf("parallel results diverge at %d: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestCachedMatchesCacheless runs one figure sweep through the run cache
// and without one and requires identical results.
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

// TestRunCacheTrafficAll pins how "all" uses the run cache. Per
// benchmark it makes 5 program lookups (one per section), 2 profile
// lookups (Tables 1 and 2) and 10 timing lookups (Section 1 2, Figure 6
// 4, Figure 7 4), and computes 1 program, 1 profile and 8 timing runs. A
// key that split equal runs or merged different ones would move the
// counts.
func TestRunCacheTrafficAll(t *testing.T) {
	o := Options{
		Benchmarks:   []string{"comp", "li"},
		TimingInsts:  20_000,
		ProfileInsts: 20_000,
		Parallelism:  2,
		Cache:        runcache.New(),
	}
	if _, err := Collect(ctx(), "all", o); err != nil {
		t.Fatal(err)
	}
	want := runcache.Stats{Lookups: 34, Computes: 20, Hits: 14}
	if got := o.Cache.Stats(); got != want {
		t.Errorf("run cache traffic = %+v, want %+v", got, want)
	}
}

func TestProfileGuidedExperiment(t *testing.T) {
	r, err := ProfileGuided(ctx(), quick("vortex"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row.GuidedPaths == 0 {
		t.Error("no guided paths found")
	}
	if row.DynamicSpeedup <= 0 || row.GuidedSpeedup <= 0 {
		t.Errorf("speedups missing: %+v", row)
	}
}

func TestAblationsExperiment(t *testing.T) {
	o := quick("comp")
	o.TimingInsts = 60_000
	r, err := Ablations(ctx(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ablationConfigs()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Speedup <= 0 {
			t.Errorf("%s: speedup %f", row.Name, row.Speedup)
		}
	}
	if r.Rows[0].Name != "default (paper)" {
		t.Error("first row should be the paper default")
	}
	if len(r.Errors) != 0 {
		t.Errorf("unexpected errors: %+v", r.Errors)
	}
}

// TestSeededPanicIsolated is the failure-isolation contract: a panic in
// one benchmark's run surfaces as that benchmark's error while every
// other benchmark completes its row.
func TestSeededPanicIsolated(t *testing.T) {
	testHookBeforeRun = func(bench string) {
		if bench == "gcc" {
			panic("seeded test panic")
		}
	}
	defer func() { testHookBeforeRun = nil }()

	o := Options{ProfileInsts: 30_000}
	r, err := Table1(ctx(), o)
	if err != nil {
		t.Fatal(err)
	}
	all := synth.Names()
	if len(r.Rows) != len(all)-1 {
		t.Errorf("rows = %d, want %d (all but gcc)", len(r.Rows), len(all)-1)
	}
	for _, row := range r.Rows {
		if row.Bench == "gcc" {
			t.Error("panicked benchmark still produced a row")
		}
	}
	if len(r.Errors) != 1 {
		t.Fatalf("errors = %+v, want exactly one", r.Errors)
	}
	if e := r.Errors[0]; e.Bench != "gcc" || !strings.Contains(e.Err, "seeded test panic") {
		t.Errorf("error misattributed: %+v", e)
	}
}

// TestCancelledContextPartial verifies a cancelled sweep returns a
// partial (here: empty) result accounting for every benchmark.
func TestCancelledContextPartial(t *testing.T) {
	c, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Figure6(c, quick("comp", "li"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Errorf("cancelled sweep produced rows: %+v", r.Rows)
	}
	if len(r.Errors) != 2 {
		t.Errorf("errors = %+v, want one per benchmark", r.Errors)
	}
}

// TestAllPartialKeepsErrorsInEverySection holds every section of "all"
// to one account of a failed benchmark: with li's runs panicking, each
// of the seven sections keeps comp's row only and carries exactly one
// RunError, for li. Figures 8 and 9 share Figure 7's run set, so they
// must share its errors too.
func TestAllPartialKeepsErrorsInEverySection(t *testing.T) {
	testHookBeforeRun = func(bench string) {
		if bench == "li" {
			panic("seeded test panic")
		}
	}
	defer func() { testHookBeforeRun = nil }()

	o := Options{Benchmarks: []string{"comp", "li"}, TimingInsts: 20_000, ProfileInsts: 20_000, Cache: runcache.New()}
	sections, err := Collect(ctx(), "all", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 7 {
		t.Fatalf("%d sections, want 7", len(sections))
	}
	for _, s := range sections {
		v := reflect.ValueOf(s.Val).Elem()
		rows := v.FieldByName("Rows")
		if !rows.IsValid() {
			rows = v.FieldByName("Runs")
		}
		var benches []string
		for i := 0; i < rows.Len(); i++ {
			benches = append(benches, rows.Index(i).FieldByName("Bench").String())
		}
		if !reflect.DeepEqual(benches, []string{"comp"}) {
			t.Errorf("%s: rows for %v, want [comp]", s.Key, benches)
		}
		errs := v.FieldByName("Errors").Interface().([]results.RunError)
		if len(errs) != 1 || errs[0].Bench != "li" || !strings.Contains(errs[0].Err, "seeded test panic") {
			t.Errorf("%s: errors %+v, want one for li", s.Key, errs)
		}
	}
}

// TestTraceNamesDistinct pins that a traced experiment names each of
// its runs apart, by the variant its own table defines: Figure 6's path
// lengths by their "+n<N>" suffix, each ablation by its row name, and
// the guided study's dynamic and guided runs.
func TestTraceNamesDistinct(t *testing.T) {
	ablations := []string{"comp/baseline"}
	for _, c := range ablationConfigs() {
		ablations = append(ablations, "comp/"+c.name)
	}
	for _, tc := range []struct {
		name string
		run  func(context.Context, Options) error
		want []string
	}{
		{"fig6", func(c context.Context, o Options) error { _, err := Figure6(c, o); return err },
			[]string{"comp/baseline", "comp/potential", "comp/potential+n16", "comp/potential+n4"}},
		{"ablations", func(c context.Context, o Options) error { _, err := Ablations(c, o); return err },
			ablations},
		{"guided", func(c context.Context, o Options) error { _, err := ProfileGuided(c, o); return err },
			[]string{"comp/baseline", "comp/guided", "comp/microthread+prune"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := Options{Benchmarks: []string{"comp"}, TimingInsts: 20_000, ProfileInsts: 20_000}
			o.Trace = obs.NewCollector()
			if err := tc.run(ctx(), o); err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, r := range o.Trace.Runs() {
				names = append(names, r.Name)
			}
			sort.Strings(names)
			want := append([]string(nil), tc.want...)
			sort.Strings(want)
			if !reflect.DeepEqual(names, want) {
				t.Errorf("traced run names %q, want %q", names, want)
			}
		})
	}
}

// cancelOnSecondRow returns a context that is cancelled when the row
// driver starts its second row, and clears the hook when t ends.
func cancelOnSecondRow(t *testing.T) context.Context {
	c, cancel := context.WithCancel(context.Background())
	started := 0
	testHookBeforeRun = func(string) {
		if started++; started == 2 {
			cancel()
		}
	}
	t.Cleanup(func() {
		testHookBeforeRun = nil
		cancel()
	})
	return c
}

// TestPartialVariantSweepsAverageOneBenchmarkSet holds the per-variant
// experiments to Figure 7's partial rule: a benchmark appears in every
// column or in none. With li cancelled before it starts, the ablations
// and the shootout report one error, for li, and every geomean equals a
// complete run's over comp alone.
func TestPartialVariantSweepsAverageOneBenchmarkSet(t *testing.T) {
	o := Options{Benchmarks: []string{"comp", "li"}, TimingInsts: 20_000, Parallelism: 1}
	compOnly := o
	compOnly.Benchmarks = []string{"comp"}
	wantErrs := []results.RunError{{Bench: "li", Err: context.Canceled.Error()}}

	t.Run("ablations", func(t *testing.T) {
		want, err := Ablations(ctx(), compOnly)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Ablations(cancelOnSecondRow(t), o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Errors, wantErrs) {
			t.Errorf("errors %+v, want %+v", got.Errors, wantErrs)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("rows %+v, want comp's %+v", got.Rows, want.Rows)
		}
	})
	t.Run("shootout", func(t *testing.T) {
		want, err := Shootout(ctx(), compOnly)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Shootout(cancelOnSecondRow(t), o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Errors, wantErrs) {
			t.Errorf("errors %+v, want %+v", got.Errors, wantErrs)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Geomean, want.Geomean) {
			t.Errorf("rows %+v geomean %v, want comp's %+v geomean %v",
				got.Rows, got.Geomean, want.Rows, want.Geomean)
		}
	})
}

// TestShootoutIgnoresBPred pins the shootout's contract with -bpred: every
// contender names its own backend, so a backend chosen in Options.BPred
// must not reach any of its runs.
func TestShootoutIgnoresBPred(t *testing.T) {
	o := quick("comp")
	o.TimingInsts = 60_000
	want, err := Shootout(ctx(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.BPred = bpred.BackendTAGE
	got, err := Shootout(ctx(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Options.BPred moved the shootout:\nwith tage: %+v\nwithout:   %+v", got, want)
	}
}
