// Command dpbpbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, prints every metric with its unit, and
// ends with one JSON line holding the correctness verdict, the operation
// counts and the metrics:
//
//	bash dpbpbench/run.sh --workload paper-all --seed 0 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced repetitions;
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer ledger. Each repetition runs in a fresh child process of this
// binary, one at a time, so it starts from the state a `dpbp -exp all`
// user pays for: no warm run cache and none of exp's pooled machines.
// README.md describes the workloads, metrics and ledger.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloadNames are the workloads, in BENCHMARK.json's order.
var workloadNames = []string{paperAll, "uthread-heavy", "no-uthread"}

// metric is one reported metric and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports: host costs measured
// untraced, then simulated statistics.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_minsts_per_s", "M/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"ipc_base_geomean", "IPC"},
	{"uthread_speedup_pct", "%"},
	{"potential_speedup_pct", "%"},
	{"mispred_coverage_pct", "%"},
}

// perLayer are the metrics a --trace 1 run reports. A metric of a layer
// a workload does not exercise reads 0 on it (README.md lists which).
var perLayer = []metric{
	{"synth.generate_ms", "ms"},
	{"emu.ns_per_inst", "ns/inst"},
	{"bpred.ns_per_branch", "ns/branch"},
	{"cpu.base_ns_per_inst", "ns/inst"},
	{"cpu.core_ns_per_inst", "ns/inst"},
	{"cpu.perfect_ns_per_inst", "ns/inst"},
	{"cpu.insts", "count"},
	{"cpu.mispredicts_per_kinst", "1/kinst"},
	{"uthread.ns_per_inst", "ns/inst"},
	{"uthread.attempted_spawns", "count"},
	{"uthread.spawn_ratio", "ratio"},
	{"uthread.abort_active_ratio", "ratio"},
	{"uthread.early_ratio", "ratio"},
	{"uthread.micro_insts_per_inst", "ratio"},
	{"uthread.builds", "count"},
	{"pathcache.promotions", "count"},
	{"pcache.hit_ratio", "ratio"},
	{"pathprof.ns_per_inst", "ns/inst"},
	{"pathprof.self_ns_per_inst", "ns/inst"},
	{"pathprof.insts", "count"},
	{"exp.table1_s", "s"},
	{"exp.table2_s", "s"},
	{"exp.perfect_s", "s"},
	{"exp.figure6_s", "s"},
	{"exp.figure7_s", "s"},
	{"runcache.lookups", "count"},
	{"runcache.computes", "count"},
	{"runcache.hit_ratio", "ratio"},
	{"runcache.waits", "count"},
	{"sched.cpu_util", "ratio"},
	{"report.render_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"ledger.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpbpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "input seed; 0 is the paper's suite")
	seconds := fs.Float64("seconds", 10, "how long to keep starting repetitions")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced ledger and reports per-layer metrics")
	rep := fs.Bool("rep", false, "run one repetition and print its report as JSON (the benchmark's own child processes)")
	traced := fs.Bool("traced", false, "with -rep: record spans and run the reference passes")
	side := fs.Bool("side", false, "with -rep: also run the side runs that complete the simulated metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if indexOf(workloadNames, *name) < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "dpbpbench: need --workload (%s) and --trace 0 or 1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	ctx := context.Background()
	if *rep {
		r, err := runRep(ctx, *name, *seed, *traced, *side)
		if err != nil {
			fmt.Fprintf(stderr, "dpbpbench: %s: %v\n", *name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintf(stderr, "dpbpbench: %v\n", err)
			return 1
		}
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "dpbpbench: %v\n", err)
		return 1
	}
	s, err := drive(ctx, exe, *name, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "dpbpbench: %s: %v\n", *name, err)
		return 1
	}
	metrics := endToEnd
	if *trace == 1 {
		metrics = perLayer
		if err := writeSpans(filepath.Dir(exe), *name, *seed, s.traced); err != nil {
			fmt.Fprintf(stderr, "dpbpbench: %v\n", err)
			return 1
		}
	}
	out := s.result(*name, *seed, metrics)
	printTable(stdout, *name, *seed, s, out)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "dpbpbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// minReps is the fewest repetitions of each kind a run aggregates,
// however short --seconds is.
const minReps = 3

// repTimeout bounds one child repetition; the longest takes seconds.
const repTimeout = 150 * time.Second

// session is every repetition one invocation ran.
type session struct {
	plain  []*repReport // untraced; the first also ran the side runs
	traced []*repReport
}

// drive keeps starting repetitions, one child process at a time, until
// seconds have passed and each kind has at least minReps. With trace it
// alternates untraced and traced ones.
func drive(ctx context.Context, exe, name string, seed int64, seconds float64, trace bool, stderr io.Writer) (*session, error) {
	start := time.Now()
	var s session
	for i := 0; ; i++ {
		enough := len(s.plain) >= minReps && (!trace || len(s.traced) >= minReps)
		if enough && time.Since(start).Seconds() >= seconds {
			return &s, nil
		}
		withTrace := trace && i%2 == 1
		r, err := spawnRep(ctx, exe, name, seed, withTrace, !trace && i == 0, stderr)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		if withTrace {
			s.traced = append(s.traced, r)
		} else {
			s.plain = append(s.plain, r)
		}
	}
}

// spawnRep runs one repetition in a child process and waits for it.
func spawnRep(ctx context.Context, exe, name string, seed int64, traced, side bool, stderr io.Writer) (*repReport, error) {
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-rep", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-traced="+strconv.FormatBool(traced), "-side="+strconv.FormatBool(side))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var r repReport
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	return &r, nil
}

// output is the last line a run prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metVal `json:"metrics"`
	// samples holds the per-repetition values behind each median.
	samples  map[string][]float64
	problems []string
}

type metVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostMetrics read each untraced repetition's host costs.
var hostMetrics = map[string]func(r *repReport) float64{
	"wall_s":           func(r *repReport) float64 { return r.WallS },
	"cpu_s":            func(r *repReport) float64 { return r.CPUS },
	"sim_minsts_per_s": func(r *repReport) float64 { return float64(r.SimInsts) / r.WallS / 1e6 },
	"setup_s":          func(r *repReport) float64 { return r.SetupS },
	"max_rss_mb":       func(r *repReport) float64 { return r.MaxRSSMB },
}

// result aggregates the session. Host metrics are medians over the
// untraced repetitions and per-layer ones medians over the traced ones;
// simulated metrics are deterministic and come from the first
// repetition, which also ran the side runs. The run is correct when no
// operation failed, every repetition produced the same digest, the
// digest matches the recorded reference at seed 0 (at every seed on
// paper-all), and every metric was measured.
func (s *session) result(name string, seed int64, metrics []metric) *output {
	out := &output{Metrics: map[string]metVal{}, samples: map[string][]float64{}}
	all := append(append([]*repReport(nil), s.plain...), s.traced...)
	for _, r := range all {
		out.Attempted += r.Ops
		out.Failed += len(r.Failures)
		for _, f := range r.Failures {
			out.problems = append(out.problems, "failed: "+f)
		}
		if r.Digest != all[0].Digest {
			out.problems = append(out.problems, fmt.Sprintf("digest %s differs from the first repetition's %s", r.Digest, all[0].Digest))
		}
	}
	// paper-all ignores the seed, so its reference holds at every seed.
	if want := referenceDigests[name]; (seed == 0 || name == paperAll) && all[0].Digest != want {
		out.problems = append(out.problems, fmt.Sprintf("digest %s, seed-0 reference %s", all[0].Digest, want))
	}

	wall := func(r *repReport) float64 { return r.WallS }
	for _, m := range metrics {
		var xs []float64
		switch {
		case hostMetrics[m.name] != nil:
			xs = values(s.plain, hostMetrics[m.name])
		case m.name == "trace.overhead_frac":
			xs = []float64{median(values(s.traced, wall))/median(values(s.plain, wall)) - 1}
		case len(s.traced) > 0:
			xs = values(s.traced, func(r *repReport) float64 { return r.Layers[m.name] })
		default:
			if v, ok := s.plain[0].Sim[m.name]; ok {
				xs = []float64{v}
			}
		}
		if len(xs) == 0 {
			out.problems = append(out.problems, m.name+" was not measured")
		}
		out.samples[m.name] = xs
		out.Metrics[m.name] = metVal{Value: median(xs), Unit: m.unit}
	}
	out.Correct = len(out.problems) == 0
	return out
}

func values(reps []*repReport, f func(*repReport) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printTable prints the human-readable report: every metric with its
// unit, and the range and count of the repetitions behind a median.
func printTable(w io.Writer, name string, seed int64, s *session, out *output) {
	fmt.Fprintf(w, "dpbpbench %s seed %d: %d untraced and %d traced repetitions, %d operations, %d failed\n",
		name, seed, len(s.plain), len(s.traced), out.Attempted, out.Failed)
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.Metrics[k]
		fmt.Fprintf(w, "  %-30s %14.6g %-9s", k, m.Value, m.Unit)
		if xs := append([]float64(nil), out.samples[k]...); len(xs) > 1 {
			sort.Float64s(xs)
			fmt.Fprintf(w, " median of %d, range %.6g to %.6g", len(xs), xs[0], xs[len(xs)-1])
		}
		fmt.Fprintln(w)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// writeSpans writes the traced repetitions' spans, keyed by repetition,
// as one JSON document in dir, the binary's own directory (.bench_build
// when run through run.sh).
func writeSpans(dir, name string, seed int64, reps []*repReport) error {
	type repSpans struct {
		Rep   int    `json:"rep"`
		Spans []span `json:"spans"`
	}
	doc := make([]repSpans, len(reps))
	for i, r := range reps {
		doc[i] = repSpans{Rep: i, Spans: r.Spans}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
