package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/obs"
	"dpbp/internal/runcache"
)

func tinySMTOpts() Options {
	return Options{
		TimingInsts:  30_000,
		ProfileInsts: 30_000,
		Cache:        runcache.New(),
	}
}

// TestSMTExperimentSmoke runs the canned study at a tiny budget and pins
// the result shape: every mix carries both sharing variants, every
// variant both contexts, and the solo references are populated. No
// context may run faster than its solo reference.
func TestSMTExperimentSmoke(t *testing.T) {
	res, err := SMT(context.Background(), tinySMTOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("unexpected run errors: %v", res.Errors)
	}
	if res.FetchPolicy != cpu.FetchRoundRobin.String() {
		t.Errorf("default fetch policy = %q", res.FetchPolicy)
	}
	if len(res.Mixes) != len(defaultSMTMixes()) {
		t.Fatalf("got %d mixes, want %d", len(res.Mixes), len(defaultSMTMixes()))
	}
	for _, m := range res.Mixes {
		if len(m.Variants) != 2 {
			t.Fatalf("mix %s: %d variants, want 2", m.Name, len(m.Variants))
		}
		if m.Variants[0].Sharing != "private" || m.Variants[1].Sharing != "shared-pathcache" {
			t.Errorf("mix %s: sharing labels %q, %q", m.Name, m.Variants[0].Sharing, m.Variants[1].Sharing)
		}
		for _, v := range m.Variants {
			if v.MachineIPC <= 0 || v.Cycles == 0 {
				t.Errorf("mix %s/%s: empty machine outcome", m.Name, v.Sharing)
			}
			if len(v.Contexts) != 2 {
				t.Fatalf("mix %s/%s: %d contexts", m.Name, v.Sharing, len(v.Contexts))
			}
			for _, c := range v.Contexts {
				if c.IPC <= 0 || c.SoloIPC <= 0 {
					t.Errorf("mix %s/%s ctx %s: ipc %v solo %v", m.Name, v.Sharing, c.Bench, c.IPC, c.SoloIPC)
				}
				// A co-runner only takes shared resources away. A context
				// faster than alone was hitting its co-runner's cache
				// lines or store-buffer entries.
				if c.IPC > c.SoloIPC {
					t.Errorf("mix %s/%s ctx %s: ipc %v above its solo %v", m.Name, v.Sharing, c.Bench, c.IPC, c.SoloIPC)
				}
				if c.CoRunnerDenied > c.AttemptedSpawns {
					t.Errorf("mix %s/%s ctx %s: denied %d > attempted %d",
						m.Name, v.Sharing, c.Bench, c.CoRunnerDenied, c.AttemptedSpawns)
				}
			}
		}
	}
}

// TestSMTExperimentOverride pins the Options.SMT plumbing: a spec-built
// config replaces the mix list, the fetch policy, and the shared
// variant's structure set.
func TestSMTExperimentOverride(t *testing.T) {
	smt, err := ParseSMTSpec("gcc+ijpeg:icount:pcache,uram")
	if err != nil {
		t.Fatal(err)
	}
	o := tinySMTOpts()
	o.SMT = smt
	res, err := SMT(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.FetchPolicy != cpu.FetchICount.String() {
		t.Errorf("fetch policy = %q, want icount", res.FetchPolicy)
	}
	if len(res.Mixes) != 1 || res.Mixes[0].Name != "gcc+ijpeg" {
		t.Fatalf("mixes = %+v, want the one overridden mix", res.Mixes)
	}
	v := res.Mixes[0].Variants
	if len(v) != 2 || v[1].Sharing != "shared-pcache+uram" {
		t.Errorf("variants = %+v, want private + shared-pcache+uram", v)
	}
}

// TestSMTRefusesBenchmarks: only Options.SMT picks the study's mix, so a
// Benchmarks list, with or without an -smt mix, is an error naming -smt,
// and no run starts.
func TestSMTRefusesBenchmarks(t *testing.T) {
	testHookBeforeRun = func(name string) { t.Errorf("run %s started", name) }
	defer func() { testHookBeforeRun = nil }()
	for _, spec := range []string{"", "comp+comp"} {
		o := tinySMTOpts()
		o.Benchmarks = []string{"comp"}
		o.SMT, _ = ParseSMTSpec(spec)
		if _, err := SMT(context.Background(), o); err == nil || !strings.Contains(err.Error(), "-smt") {
			t.Errorf("-smt %q -bench comp: err = %v, want one naming -smt", spec, err)
		}
	}
}

// TestSMTExperimentDeterministic pins cache transparency: with and
// without a run cache the study produces identical results.
func TestSMTExperimentDeterministic(t *testing.T) {
	o := tinySMTOpts()
	o.SMT, _ = ParseSMTSpec("comp+li")
	cached, err := SMT(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = nil
	fresh, err := SMT(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, fresh) {
		t.Errorf("cached and fresh SMT results differ:\n%+v\nvs\n%+v", cached, fresh)
	}
}

// TestSMTRunsTraced pins that Options.Trace records the SMT runs, not
// only their solo references: each (mix, sharing) run gets a tracer
// named "mix/sharing", and its events carry the second primary context.
func TestSMTRunsTraced(t *testing.T) {
	o := tinySMTOpts()
	o.SMT, _ = ParseSMTSpec("comp+comp")
	o.Trace = obs.NewCollector()
	if _, err := SMT(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	ctx1 := map[string]bool{}
	for _, r := range o.Trace.Runs() {
		for _, ev := range r.Tracer.Events() {
			if ev.Ctx == 1 {
				ctx1[r.Name] = true
				break
			}
		}
	}
	for _, name := range []string{"comp+comp/private", "comp+comp/shared-pathcache"} {
		if !ctx1[name] {
			t.Errorf("no context-1 events traced for SMT run %s", name)
		}
	}
}

// TestSMTFailedUnitLeavesOnlyItsVariant pins the SMT study's partial
// rule: a failed (mix, sharing) unit is named "mix/sharing" in Errors
// and drops only its own variant, so the mix keeps its other variant.
func TestSMTFailedUnitLeavesOnlyItsVariant(t *testing.T) {
	testHookBeforeRun = func(name string) {
		if name == "comp+li/shared-pathcache" {
			panic("seeded test panic")
		}
	}
	defer func() { testHookBeforeRun = nil }()

	o := tinySMTOpts()
	o.SMT, _ = ParseSMTSpec("comp+li")
	res, err := SMT(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 1 || res.Errors[0].Bench != "comp+li/shared-pathcache" ||
		!strings.Contains(res.Errors[0].Err, "seeded test panic") {
		t.Errorf("errors %+v, want one for comp+li/shared-pathcache", res.Errors)
	}
	if len(res.Mixes) != 1 || len(res.Mixes[0].Variants) != 1 || res.Mixes[0].Variants[0].Sharing != "private" {
		t.Errorf("mixes %+v, want comp+li with its private variant only", res.Mixes)
	}
}

// TestParseSMTSpec pins the -smt vocabulary, both sides.
func TestParseSMTSpec(t *testing.T) {
	good := []struct {
		in   string
		want cpu.SMTConfig
	}{
		{"", cpu.SMTConfig{}},
		{"gcc+ijpeg", cpu.SMTConfig{
			Contexts: []cpu.WorkloadRef{{Bench: "gcc"}, {Bench: "ijpeg"}},
		}},
		{"gcc+gcc:icount", cpu.SMTConfig{
			Contexts:    []cpu.WorkloadRef{{Bench: "gcc"}, {Bench: "gcc"}},
			FetchPolicy: cpu.FetchICount,
		}},
		{"go+crafty_2k:rr:pathcache,uram", cpu.SMTConfig{
			Contexts:        []cpu.WorkloadRef{{Bench: "go"}, {Bench: "crafty_2k"}},
			SharedPathCache: true,
			SharedMicroRAM:  true,
		}},
		{"comp+li:icount:all", cpu.SMTConfig{
			Contexts:        []cpu.WorkloadRef{{Bench: "comp"}, {Bench: "li"}},
			FetchPolicy:     cpu.FetchICount,
			SharedPathCache: true,
			SharedPCache:    true,
			SharedMicroRAM:  true,
			SharedPredictor: true,
		}},
	}
	for _, c := range good {
		got, err := ParseSMTSpec(c.in)
		if err != nil {
			t.Errorf("ParseSMTSpec(%q) = %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSMTSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	bad := []string{
		"nope+gcc",            // unknown benchmark
		"gcc+",                // empty context name
		"gcc+li:sideways",     // unknown policy
		"gcc+li:rr:bogus",     // unknown sharing flag
		"gcc+li:rr:pred:more", // too many sections
	}
	for _, in := range bad {
		if _, err := ParseSMTSpec(in); err == nil {
			t.Errorf("ParseSMTSpec(%q) accepted", in)
		}
	}
}

// TestOtherExperimentsRefuseSMT: only the smt study reads Options.SMT,
// so every other experiment, "all" included, refuses an enabled one with
// an error naming -exp smt, and starts no row. The hook cancels the
// sweep a missed refusal would start.
func TestOtherExperimentsRefuseSMT(t *testing.T) {
	defer func() { testHookBeforeRun = nil }()
	for _, name := range []string{"table1", "table2", "fig6", "fig7", "fig8", "fig9",
		"perfect", "guided", "ablations", "shootout", "all"} {
		c, cancel := context.WithCancel(context.Background())
		testHookBeforeRun = func(row string) {
			t.Errorf("%s: row %s started", name, row)
			cancel()
		}
		o := tinySMTOpts()
		o.Benchmarks = []string{"comp"}
		o.SMT, _ = ParseSMTSpec("comp+comp")
		if _, err := Collect(c, name, o); err == nil || !strings.Contains(err.Error(), "-exp smt") {
			t.Errorf("%s with -smt comp+comp: err = %v, want one naming -exp smt", name, err)
		}
		cancel()
	}
}
