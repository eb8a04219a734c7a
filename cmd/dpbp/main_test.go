package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dpbp"
	"dpbp/internal/exp"
)

func tiny() dpbp.ExperimentOptions {
	return dpbp.ExperimentOptions{
		Benchmarks:   []string{"comp"},
		TimingInsts:  60_000,
		ProfileInsts: 60_000,
	}
}

func TestRunDispatch(t *testing.T) {
	for _, name := range []string{"table1", "table2", "fig6", "fig7", "fig8", "fig9", "perfect", "guided"} {
		var b bytes.Buffer
		if err := run(context.Background(), &b, name, "", tiny()); err != nil {
			t.Errorf("run(%q) = %v", name, err)
		}
		if b.Len() == 0 {
			t.Errorf("run(%q) wrote nothing", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(context.Background(), &bytes.Buffer{}, "bogus", "", tiny())
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("run(bogus) = %v", err)
	}
}

func TestRunUnknownFormat(t *testing.T) {
	err := run(context.Background(), &bytes.Buffer{}, "table1", "yaml", tiny())
	if err == nil || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("run(format=yaml) = %v", err)
	}
}

// TestRunBadBenchmark: an unknown benchmark and one listed twice both
// fail the run with an error naming it.
func TestRunBadBenchmark(t *testing.T) {
	cases := []struct {
		bench []string
		bad   string
	}{
		{[]string{"nope"}, "nope"},
		{[]string{"comp", "comp", "li"}, "comp"},
	}
	for _, c := range cases {
		opts := tiny()
		opts.Benchmarks = c.bench
		for _, exp := range []string{"table1", "fig7"} {
			err := run(context.Background(), &bytes.Buffer{}, exp, "", opts)
			if want := fmt.Sprintf("%q", c.bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-exp %s -bench %v: err = %v, want one naming %s", exp, c.bench, err, want)
			}
		}
	}
}

func TestParseBenchList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"gcc", []string{"gcc"}},
		{"gcc,li,mcf_2k", []string{"gcc", "li", "mcf_2k"}},
		{" gcc , li ", []string{"gcc", "li"}},
		{"gcc,,li", []string{"gcc", "li"}},
	}
	for _, c := range cases {
		if got := parseBenchList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseBenchList(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestRunJSONFormat(t *testing.T) {
	var b bytes.Buffer
	if err := run(context.Background(), &b, "table1", "json", tiny()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []struct {
			Bench string `json:"bench"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.Rows) != 1 || doc.Rows[0].Bench != "comp" {
		t.Errorf("unexpected JSON document: %s", b.String())
	}
}

func TestRunCSVFormat(t *testing.T) {
	var b bytes.Buffer
	if err := run(context.Background(), &b, "table1", "csv", tiny()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "bench,") {
		t.Errorf("unexpected CSV:\n%s", b.String())
	}
}

// TestRunAllJSON is the acceptance check for machine-readable full runs:
// -exp all -format json must emit one valid JSON document containing
// every section.
func TestRunAllJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var b bytes.Buffer
	if err := run(context.Background(), &b, "all", "json", tiny()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"table1", "table2", "perfect", "figure6", "figure7", "figure8", "figure9", "order"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("all-JSON document missing %q", key)
		}
	}
}

func TestRunAllText(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var b bytes.Buffer
	if err := run(context.Background(), &b, "all", "", tiny()); err != nil {
		t.Errorf("run(all) = %v", err)
	}
	for _, want := range []string{"Table 1", "Table 2", "Section 1", "Figure 6", "Figure 7", "Figure 8", "Figure 9"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("all-text output missing %q", want)
		}
	}
}

// TestRunAllPartialEveryFormat is the -timeout contract for "all": when
// the deadline has passed before any run starts, every one of the seven
// sections must report comp as missing, in every output format.
func TestRunAllPartialEveryFormat(t *testing.T) {
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	render := func(format string) string {
		var b bytes.Buffer
		if err := run(expired, &b, "all", format, tiny()); err != nil {
			t.Fatalf("run(all, %q) = %v", format, err)
		}
		return b.String()
	}

	if n := strings.Count(render("text"), "PARTIAL RESULT"); n != 7 {
		t.Errorf("text: %d PARTIAL RESULT blocks, want 7", n)
	}

	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(render("json")), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var order []string
	if err := json.Unmarshal(doc["order"], &order); err != nil || len(order) != 7 {
		t.Fatalf("order = %v (%v), want 7 sections", order, err)
	}
	for _, key := range order {
		var sec struct {
			Errors []dpbp.RunError `json:"errors"`
		}
		if err := json.Unmarshal(doc[key], &sec); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if len(sec.Errors) != 1 || sec.Errors[0].Bench != "comp" {
			t.Errorf("json %s: errors %+v, want one for comp", key, sec.Errors)
		}
	}

	var sections, withError []string
	for _, line := range strings.Split(render("csv"), "\n") {
		switch {
		case strings.HasPrefix(line, "# "):
			sections = append(sections, strings.TrimPrefix(line, "# "))
		case strings.HasPrefix(line, "ERROR,comp,") && len(sections) > len(withError):
			withError = append(withError, sections[len(sections)-1])
		}
	}
	if len(sections) != 7 || !reflect.DeepEqual(withError, sections) {
		t.Errorf("csv: sections %v, ERROR records after %v; want one after each of 7", sections, withError)
	}
}

// TestRunTable1ProfileHonoursDeadline is the -timeout contract for
// profiling runs: a profile budget that takes seconds under a 100 ms
// deadline must end in a partial result that names the benchmark, not a
// complete table printed long after the deadline.
func TestRunTable1ProfileHonoursDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	opts := tiny()
	opts.Benchmarks = []string{"gcc"}
	opts.ProfileInsts = 50_000_000
	opts.Cache = dpbp.NewRunCache()
	var b bytes.Buffer
	if err := run(ctx, &b, "table1", "", opts); err != nil {
		t.Fatalf("run(table1) = %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "PARTIAL RESULT") || !strings.Contains(out, "gcc: context deadline exceeded") {
		t.Errorf("a profile past its deadline printed no partial result for gcc:\n%s", out)
	}
}

// TestRunNoCompletedBenchmarkPrintsNoGeomean checks every experiment
// that averages its rows, with a deadline that passed before any run
// started: no format may present an average of zero rows as measured.
// Text has no Geomean line and no +0.0% cell, CSV has only section
// markers, headers and ERROR records, and JSON has no geomean key and
// only empty rows and runs.
func TestRunNoCompletedBenchmarkPrintsNoGeomean(t *testing.T) {
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	for _, name := range []string{"all", "fig6", "guided", "ablations", "shootout"} {
		t.Run(name, func(t *testing.T) {
			render := func(format string) string {
				var b bytes.Buffer
				if err := run(expired, &b, name, format, tiny()); err != nil {
					t.Fatalf("run(%s, %q) = %v", name, format, err)
				}
				return b.String()
			}

			text := render("text")
			if strings.Contains(text, "Geomean") || strings.Contains(text, "+0.0%") {
				t.Errorf("text prints an average of no rows:\n%s", text)
			}

			header := true
			for _, line := range strings.Split(render("csv"), "\n") {
				switch {
				case line == "":
				case strings.HasPrefix(line, "# "):
					header = true
				case header:
					header = false
				case !strings.HasPrefix(line, "ERROR,"):
					t.Errorf("csv data record %q", line)
				}
			}

			var doc any
			if err := json.Unmarshal([]byte(render("json")), &doc); err != nil {
				t.Fatalf("invalid JSON: %v", err)
			}
			if at := measuredJSON(doc, name); at != "" {
				t.Errorf("json carries %s", at)
			}
		})
	}
}

// measuredJSON returns the path of the first geomean key or non-empty
// rows or runs list in a decoded JSON document, or "" if it has none.
func measuredJSON(v any, at string) string {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if strings.HasPrefix(k, "geomean") {
				return at + "." + k
			}
			if list, ok := x.([]any); ok && (k == "rows" || k == "runs") && len(list) > 0 {
				return at + "." + k + " with entries"
			}
			if s := measuredJSON(x, at+"."+k); s != "" {
				return s
			}
		}
	case []any:
		for i, x := range v {
			if s := measuredJSON(x, fmt.Sprintf("%s[%d]", at, i)); s != "" {
				return s
			}
		}
	}
	return ""
}

func TestRunObsTraceWritesChromeJSON(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	var b bytes.Buffer
	err := runObs(context.Background(), &b, "fig7", "", tiny(), obsOpts{traceFile: path})
	if err != nil {
		t.Fatalf("runObs(-trace) = %v", err)
	}
	// The rendered report itself is unchanged by -trace alone.
	var plain bytes.Buffer
	if err := run(context.Background(), &plain, "fig7", "", tiny()); err != nil {
		t.Fatal(err)
	}
	if b.String() != plain.String() {
		t.Error("-trace changed the rendered report")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
	// The four fig7 variants each appear as a named process.
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "process_name" {
			args := ev["args"].(map[string]any)
			names[args["name"].(string)] = true
		}
	}
	for _, want := range []string{"comp/baseline", "comp/microthread",
		"comp/microthread+prune", "comp/microthread+overhead-only"} {
		if !names[want] {
			t.Errorf("trace missing run %q (have %v)", want, names)
		}
	}
}

// TestRunObsUnwritableTrace: a -trace file that cannot be created fails
// the run before any experiment runs, so nothing is rendered.
func TestRunObsUnwritableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "trace.json")
	var b bytes.Buffer
	if err := runObs(context.Background(), &b, "table1", "", tiny(), obsOpts{traceFile: path}); err == nil {
		t.Error("runObs with an unwritable -trace path succeeded")
	}
	if b.Len() != 0 {
		t.Errorf("runObs rendered before failing on -trace:\n%s", b.String())
	}
}

// TestMainExitOutputFileErrors: a -trace or -memprofile file that cannot
// be created exits 1 before any experiment prints to stdout, and a trace
// or a CPU or heap profile whose write fails at exit exits 1 too
// (/dev/full opens but fails every write).
func TestMainExitOutputFileErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "out")
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = stdout
	defer func() { os.Stdout = saved }()

	type outputCase struct {
		name             string
		trace, cpu, heap string
		quiet            bool // nothing may reach stdout
	}
	cases := []outputCase{
		{"trace", missing, "", "", true},
		{"memprofile", "", "", missing, true},
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		cases = append(cases,
			outputCase{"trace write", "/dev/full", "", "", false},
			outputCase{"cpuprofile write", "", "/dev/full", "", false},
			outputCase{"memprofile write", "", "", "/dev/full", false})
	}
	for _, c := range cases {
		if err := stdout.Truncate(0); err != nil {
			t.Fatal(err)
		}
		code := mainExit("table1", "comp", "", "", "", 0, 20_000, 0, 0, obsOpts{traceFile: c.trace}, c.cpu, c.heap)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", c.name, code)
		}
		if fi, err := stdout.Stat(); err != nil {
			t.Fatal(err)
		} else if c.quiet && fi.Size() != 0 {
			t.Errorf("%s: %d bytes on stdout before failing", c.name, fi.Size())
		}
	}
}

// TestMainExitRefusesBeforeAnyRun: a profiling budget above pathprof's
// bound, and an -smt mix outside -exp smt, exit 1 with nothing on stdout
// and an error on stderr that names the bound or -exp smt. The timeout
// bounds the run that a missed refusal would start.
func TestMainExitRefusesBeforeAnyRun(t *testing.T) {
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = stdout, stderr
	defer func() { os.Stdout, os.Stderr = savedOut, savedErr }()

	for _, c := range []struct {
		exp, smt  string
		profInsts uint64
		jobs      int
		timeout   time.Duration
		want      string
	}{
		{"table1", "", 1 << 32, 0, 5 * time.Second, "MaxProfileInsts (4294967295)"},
		{"all", "", 1 << 32, 0, 5 * time.Second, "MaxProfileInsts (4294967295)"},
		{"fig7", "", 1 << 32, 0, 5 * time.Second, "MaxProfileInsts (4294967295)"},
		{"table1", "comp+comp", 20_000, 0, 5 * time.Second, "-exp smt"},
		{"fig7", "comp+comp", 20_000, 0, 5 * time.Second, "-exp smt"},
		{"fig7", "", 20_000, 0, -time.Second, "-timeout"},
		{"fig7", "", 20_000, -1, 5 * time.Second, "-j"},
		{"table1", "", 20_000, -3, 0, "-j"},
	} {
		for _, f := range []*os.File{stdout, stderr} {
			if err := f.Truncate(0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Seek(0, 0); err != nil {
				t.Fatal(err)
			}
		}
		code := mainExit(c.exp, "comp", "", c.smt, "", 20_000, c.profInsts, c.jobs, c.timeout, obsOpts{}, "", "")
		out, err := os.ReadFile(stdout.Name())
		if err != nil {
			t.Fatal(err)
		}
		msg, err := os.ReadFile(stderr.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 1 || len(out) != 0 || !strings.Contains(string(msg), c.want) {
			t.Errorf("-exp %s -smt %q -profinsts %d -j %d -timeout %v: exit %d, %d bytes on stdout, stderr %q; want exit 1, none, and %q",
				c.exp, c.smt, c.profInsts, c.jobs, c.timeout, code, len(out), msg, c.want)
		}
	}
}

func TestRunObsMetricsSection(t *testing.T) {
	var b bytes.Buffer
	err := runObs(context.Background(), &b, "fig7", "json", tiny(), obsOpts{metrics: true})
	if err != nil {
		t.Fatalf("runObs(-metrics) = %v", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := doc["metrics"]; !ok {
		t.Fatalf("no metrics section in keys %v", keysOf(doc))
	}
	var m struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(doc["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	// Reconciliation across layers: the traced spawn count equals the
	// summed per-run statistic for the two spawning variants.
	spawns := m.Counters["fig7.no_prune.micro.spawned"] +
		m.Counters["fig7.prune.micro.spawned"] +
		m.Counters["fig7.overhead.micro.spawned"]
	if got := m.Counters["trace.spawn"]; got != spawns {
		t.Errorf("trace.spawn = %d, summed stats = %d", got, spawns)
	}
	if m.Counters["fig7.prune.insts"] == 0 {
		t.Error("metrics missing run statistics")
	}
}

func TestRunObsMetricsText(t *testing.T) {
	var b bytes.Buffer
	err := runObs(context.Background(), &b, "fig7", "", tiny(), obsOpts{metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Metrics") || !strings.Contains(out, "trace.spawn") {
		t.Errorf("text metrics section missing:\n%s", out)
	}
}

// update rewrites every golden under testdata/ from the current output
// instead of comparing against it: `go test ./cmd/dpbp -update`. A
// deliberate output change is then this one command plus a reviewed diff.
var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// goldenOpts is the budget every golden is captured at: all twenty
// programs at 60K timing and 60K profiling instructions, through a run
// cache as the CLI runs by default. A golden therefore equals the stdout
// of `dpbp -exp NAME -insts 60000 -profinsts 60000 [-format json]`.
func goldenOpts() dpbp.ExperimentOptions {
	return dpbp.ExperimentOptions{
		TimingInsts:  60_000,
		ProfileInsts: 60_000,
		Cache:        dpbp.NewRunCache(),
	}
}

// checkGolden runs experiment name in format under opts and compares its
// output byte for byte with testdata/file, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, format, file string, opts dpbp.ExperimentOptions) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	var b bytes.Buffer
	if err := run(context.Background(), &b, name, format, opts); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Bytes(), want) {
		return
	}
	gotLines := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output diverges from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
	t.Fatalf("output differs from %s (length mismatch only)", path)
}

// TestRunAllGolden pins the text output of -exp all for all twenty
// programs byte for byte.
func TestRunAllGolden(t *testing.T) {
	checkGolden(t, "all", "", "golden_all.txt", goldenOpts())
}

// TestExperimentGoldens pins the JSON output of every experiment outside
// -exp all, so a refactor that moves any published number fails here.
func TestExperimentGoldens(t *testing.T) {
	for _, name := range []string{"guided", "ablations", "shootout", "smt"} {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, "json", "golden_"+name+".json", goldenOpts())
		})
	}
	// No canned smt mix shares the MicroRAM, the Prediction Cache or the
	// predictor; this is -smt gcc+gcc:rr:uram,pcache,pred.
	t.Run("smt_shared", func(t *testing.T) {
		opts := goldenOpts()
		smt, err := exp.ParseSMTSpec("gcc+gcc:rr:uram,pcache,pred")
		if err != nil {
			t.Fatal(err)
		}
		opts.SMT = smt
		checkGolden(t, "smt", "json", "golden_smt_shared.json", opts)
	})
}

func TestCheckBackend(t *testing.T) {
	for _, name := range append([]string{""}, dpbp.PredictorBackends()...) {
		if err := checkBackend(name); err != nil {
			t.Errorf("checkBackend(%q) = %v", name, err)
		}
	}
	if err := checkBackend("nope"); err == nil || !strings.Contains(err.Error(), "unknown predictor backend") {
		t.Errorf("checkBackend(nope) = %v", err)
	}
}

// TestRunShootoutJSON is the CI smoke test for the backend arena: a tiny
// shootout must emit one valid JSON document whose configs, rows, and
// geomeans are parallel and include the microthread+TAGE contender.
func TestRunShootoutJSON(t *testing.T) {
	var b bytes.Buffer
	if err := run(context.Background(), &b, "shootout", "json", tiny()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Configs []string `json:"configs"`
		Rows    []struct {
			Bench string `json:"bench"`
			Cells []struct {
				IPC           float64 `json:"ipc"`
				Speedup       float64 `json:"speedup"`
				MispredictPct float64 `json:"mispredict_pct"`
			} `json:"cells"`
		} `json:"rows"`
		Geomean []float64 `json:"geomean"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.Configs) < 4 {
		t.Fatalf("shootout has %d configs, want >= 4: %v", len(doc.Configs), doc.Configs)
	}
	want := map[string]bool{"hybrid": false, "tage": false, "uthread+tage": false}
	for _, c := range doc.Configs {
		if _, ok := want[c]; ok {
			want[c] = true
		}
	}
	for c, seen := range want {
		if !seen {
			t.Errorf("shootout configs %v missing %q", doc.Configs, c)
		}
	}
	if len(doc.Geomean) != len(doc.Configs) {
		t.Errorf("geomean length %d, configs %d", len(doc.Geomean), len(doc.Configs))
	}
	if len(doc.Rows) != 1 || doc.Rows[0].Bench != "comp" {
		t.Fatalf("unexpected rows: %s", b.String())
	}
	cells := doc.Rows[0].Cells
	if len(cells) != len(doc.Configs) {
		t.Fatalf("row has %d cells, %d configs", len(cells), len(doc.Configs))
	}
	if cells[0].Speedup != 1 {
		t.Errorf("reference speedup = %v, want 1", cells[0].Speedup)
	}
	for i, c := range cells {
		if c.IPC <= 0 {
			t.Errorf("config %q: IPC = %v", doc.Configs[i], c.IPC)
		}
	}
}

func TestRunShootoutTextAndCSV(t *testing.T) {
	var txt bytes.Buffer
	if err := run(context.Background(), &txt, "shootout", "", tiny()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Shootout", "uthread+tage", "Geomean"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("shootout text missing %q:\n%s", want, txt.String())
		}
	}
	var csvOut bytes.Buffer
	if err := run(context.Background(), &csvOut, "shootout", "csv", tiny()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "bench,config,") {
		t.Errorf("unexpected shootout CSV:\n%s", csvOut.String())
	}
}

// TestRunSMTJSON is the CI smoke test for the SMT interference study: a
// tiny overridden mix must emit one valid JSON document whose mixes,
// variants, and per-context rows are fully populated.
func TestRunSMTJSON(t *testing.T) {
	opts := tiny()
	opts.Benchmarks = nil // -smt picks the mix
	var err error
	if opts.SMT, err = dpbp.ParseSMTSpec("comp+comp"); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run(context.Background(), &b, "smt", "json", opts); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		FetchPolicy string `json:"fetch_policy"`
		Mixes       []struct {
			Name     string `json:"name"`
			Variants []struct {
				Sharing    string  `json:"sharing"`
				MachineIPC float64 `json:"machine_ipc"`
				Contexts   []struct {
					Bench   string  `json:"bench"`
					IPC     float64 `json:"ipc"`
					SoloIPC float64 `json:"solo_ipc"`
				} `json:"contexts"`
			} `json:"variants"`
		} `json:"mixes"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if doc.FetchPolicy != "rr" {
		t.Errorf("fetch policy = %q", doc.FetchPolicy)
	}
	if len(doc.Mixes) != 1 || doc.Mixes[0].Name != "comp+comp" {
		t.Fatalf("unexpected mixes: %s", b.String())
	}
	if len(doc.Mixes[0].Variants) != 2 {
		t.Fatalf("want both sharing variants: %s", b.String())
	}
	for _, v := range doc.Mixes[0].Variants {
		if v.Sharing == "" || v.MachineIPC <= 0 || len(v.Contexts) != 2 {
			t.Errorf("incomplete variant: %+v", v)
		}
		for _, c := range v.Contexts {
			if c.Bench != "comp" || c.IPC <= 0 || c.SoloIPC <= 0 {
				t.Errorf("incomplete context row: %+v", c)
			}
		}
	}
}

func TestRunSMTTextAndCSV(t *testing.T) {
	opts := tiny()
	opts.Benchmarks = nil // -smt picks the mix
	var err error
	if opts.SMT, err = dpbp.ParseSMTSpec("comp+comp:icount"); err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := run(context.Background(), &txt, "smt", "", opts); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SMT", "icount", "comp+comp", "private", "shared-pathcache"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("smt text missing %q:\n%s", want, txt.String())
		}
	}
	var csvOut bytes.Buffer
	if err := run(context.Background(), &csvOut, "smt", "csv", opts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "mix,sharing,") {
		t.Errorf("unexpected smt CSV:\n%s", csvOut.String())
	}
}

// TestRunSMTRefusesBench: only -smt picks the SMT study's mix, so -exp
// smt with -bench fails with an error naming -smt and prints nothing.
func TestRunSMTRefusesBench(t *testing.T) {
	var b bytes.Buffer
	err := run(context.Background(), &b, "smt", "", tiny())
	if err == nil || !strings.Contains(err.Error(), "-smt") {
		t.Errorf("-exp smt -bench comp: err = %v, want one naming -smt", err)
	}
	if b.Len() != 0 {
		t.Errorf("-exp smt -bench comp wrote:\n%s", b.String())
	}
}

// TestRunSMTBadSpec pins the CLI-facing error path: an unknown benchmark
// in an -smt spec fails before any experiment runs.
func TestRunSMTBadSpec(t *testing.T) {
	if _, err := dpbp.ParseSMTSpec("comp+nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("ParseSMTSpec(comp+nope) = %v", err)
	}
}

// TestRunBPredFlagChangesRuns exercises the -bpred plumbing end to end:
// a TAGE-backed fig7 run must succeed and differ from the default's
// output (different predictor, different timings).
func TestRunBPredFlagChangesRuns(t *testing.T) {
	var def, tage bytes.Buffer
	if err := run(context.Background(), &def, "fig7", "", tiny()); err != nil {
		t.Fatal(err)
	}
	opts := tiny()
	opts.BPred = dpbp.BackendTAGE
	if err := run(context.Background(), &tage, "fig7", "", opts); err != nil {
		t.Fatal(err)
	}
	if def.String() == tage.String() {
		t.Error("-bpred tage produced byte-identical fig7 output")
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
