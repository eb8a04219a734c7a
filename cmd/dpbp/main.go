// Command dpbp regenerates the paper's tables and figures.
//
// Usage:
//
//	dpbp -exp table1|table2|fig6|fig7|fig8|fig9|perfect|guided|ablations|shootout|smt|all [flags]
//
// Flags:
//
//	-bench comp,gcc,...   benchmarks to run (default: all twenty; -exp smt takes -smt instead)
//	-bpred NAME           direction-predictor backend (hybrid, h2p, tage; default hybrid)
//	-smt SPEC             SMT mix override, -exp smt only (bench+bench[:policy][:flags])
//	-format text|json|csv output format (default text)
//	-insts N              timing-run instruction budget (0 = library default);
//	                      read by perfect, fig6-fig9, guided, ablations, shootout, smt, all
//	-profinsts N          profiling-run instruction budget (0 = library default; at most 4294967295);
//	                      read by table1, table2, guided, all
//	-j N                  parallel benchmark runs (0 = GOMAXPROCS; negative is refused)
//	-timeout D            whole-invocation time budget (e.g. 90s; 0 = none; negative is refused)
//	-trace FILE           write a Chrome trace-event JSON of every timing run (created before any run)
//	-metrics              append a metrics section (unified counters/histograms)
//	-cpuprofile FILE      write a CPU profile of the whole invocation
//	-memprofile FILE      write a heap profile at exit (created before any run)
//
// Instruction budgets left at zero use the library defaults, so the
// numbers live in one place (internal/exp). When -timeout expires the
// sweeps drain and emit partial results: completed benchmarks keep their
// rows, and every missing one is listed in an explicit error section
// (text marks the output PARTIAL RESULT; JSON and CSV carry the errors
// structurally).
//
// Runs are memoized through a cache keyed by benchmark name and
// canonical configuration, so experiments sharing configurations (the
// figures re-request the same baselines; Tables 1 and 2 share one
// profile) compute each unique run exactly once. Results are
// bit-identical to recomputing every run.
//
// -trace attaches a lifecycle tracer to every timing run and writes one
// Chrome trace-event JSON document (loadable in Perfetto or
// chrome://tracing) with timestamps in fetch cycles; traced runs bypass
// the cache so the events are always replayed. -metrics appends a
// "metrics" section — the scattered statistics structs unified into one
// named counter/histogram registry — rendered in whatever -format says.
//
// -bpred names the direction predictor every timing run uses (the
// backends of internal/bpred at their default sizes; default "hybrid",
// the paper's gshare/PAs machine). -exp shootout instead varies the
// backend itself, pitting every backend and the H2P-gated microthread
// variant against the hybrid baseline, so it ignores -bpred. Shootout
// is not part of "all" (its runs would double the budget without
// reproducing a paper figure).
//
// -exp smt is the SMT interference study: benchmark pairs co-scheduled
// as primary contexts on one machine, each mix run with everything
// private and with the Path Cache shared, reporting per-context IPC and
// difficult-path coverage against the solo run plus the spawn-denial
// rate against the machine-wide microcontext budget. -smt overrides the
// canned mix list with one spec — benchmarks joined by "+", then an
// optional fetch policy (rr, icount) and shared-structure flags
// (pathcache, pcache, uram, pred, all), colon-separated:
// "gcc+ijpeg:icount:pathcache,uram". -smt is the only way to pick the
// mix: -exp smt with -bench exits 1, and so does -smt with any other
// experiment, "all" included. Like shootout, smt is not part of "all".
//
// Each experiment reads only the budgets its runs take: -insts sizes the
// timing runs of perfect, fig6-fig9, guided, ablations, shootout, smt and
// all, and -profinsts the profiles of table1, table2, guided and all. A
// budget an experiment does not read is ignored, but a profile's path
// counters are 32 bits wide, so every experiment, profiling or not,
// exits 1 before any run when -profinsts is above 4294967295
// (pathprof.MaxProfileInsts). So does a negative -timeout or -j: 0 is
// how to ask for no time budget or for GOMAXPROCS runs.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dpbp"
	"dpbp/internal/exp"
	"dpbp/internal/report"
	"dpbp/internal/results"
)

func main() {
	expName := flag.String("exp", "all", "experiment: table1, table2, fig6, fig7, fig8, fig9, perfect, guided, ablations, shootout, smt, all")
	bench := flag.String("bench", "", "comma-separated benchmark names (default: all; -exp smt takes -smt instead)")
	bpredName := flag.String("bpred", "", "direction-predictor backend: "+strings.Join(dpbp.PredictorBackends(), ", ")+" (default hybrid)")
	smtSpec := flag.String("smt", "", "SMT mix override, -exp smt only (any other experiment exits 1): bench+bench[:policy][:flags]")
	format := flag.String("format", "", "output format: text, json, csv (default text)")
	insts := flag.Uint64("insts", 0, "timing-run instruction budget, read by perfect, fig6-fig9, guided, ablations, shootout, smt and all (0 = library default)")
	profInsts := flag.Uint64("profinsts", 0, "profiling-run instruction budget, read by table1, table2, guided and all (0 = library default; every experiment refuses one above 4294967295)")
	jobs := flag.Int("j", 0, "parallel benchmark runs (0 = GOMAXPROCS; negative is refused)")
	timeout := flag.Duration("timeout", 0, "whole-invocation time budget; expired sweeps emit partial results (0 = none; negative is refused)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of every timing run to this file (created before any run)")
	metrics := flag.Bool("metrics", false, "append a metrics section (unified counters and histograms)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file (created before any run)")
	flag.Parse()

	os.Exit(mainExit(*expName, *bench, *bpredName, *smtSpec, *format, *insts, *profInsts, *jobs,
		*timeout, obsOpts{traceFile: *traceFile, metrics: *metrics},
		*cpuProfile, *memProfile))
}

// obsOpts bundles the observability flags.
type obsOpts struct {
	// traceFile, when non-empty, is where the Chrome trace-event JSON of
	// every timing run is written.
	traceFile string
	// metrics appends a "metrics" section to the rendered output.
	metrics bool
}

// enabled reports whether any observability output was requested.
func (o obsOpts) enabled() bool { return o.traceFile != "" || o.metrics }

// mainExit is main minus os.Exit, so profile writers run via defer before
// the process terminates. A negative -timeout or -j is refused first.
// Both profile files are opened before any experiment runs, so a bad path
// fails the invocation before it prints anything, and a profile that
// cannot be written at exit sets status 1.
func mainExit(expName, bench, bpredName, smtSpec, format string, insts, profInsts uint64, jobs int,
	timeout time.Duration, oo obsOpts, cpuProfile, memProfile string) (code int) {
	if timeout < 0 {
		fmt.Fprintf(os.Stderr, "dpbp: -timeout %v is negative (0 means no time budget)\n", timeout)
		return 1
	}
	if jobs < 0 {
		fmt.Fprintf(os.Stderr, "dpbp: -j %d is negative (0 means GOMAXPROCS)\n", jobs)
		return 1
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpbp:", err)
			return 1
		}
		// pprof drops the file's write errors; the buffer keeps the first
		// for Flush to return. The same holds for the heap profile.
		bw := bufio.NewWriter(f)
		if err := pprof.StartCPUProfile(bw); err != nil {
			fmt.Fprintln(os.Stderr, "dpbp:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := errors.Join(bw.Flush(), f.Close()); err != nil {
				fmt.Fprintln(os.Stderr, "dpbp:", err)
				code = 1
			}
		}()
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dpbp:", err)
			return 1
		}
		defer func() {
			runtime.GC()
			bw := bufio.NewWriter(f)
			if err := errors.Join(pprof.WriteHeapProfile(bw), bw.Flush(), f.Close()); err != nil {
				fmt.Fprintln(os.Stderr, "dpbp:", err)
				code = 1
			}
		}()
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	if err := checkBackend(bpredName); err != nil {
		fmt.Fprintln(os.Stderr, "dpbp:", err)
		return 1
	}
	smt, err := exp.ParseSMTSpec(smtSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbp:", err)
		return 1
	}
	opts := dpbp.ExperimentOptions{
		Benchmarks:   parseBenchList(bench),
		TimingInsts:  insts,
		ProfileInsts: profInsts,
		Parallelism:  jobs,
		BPred:        bpredName,
		SMT:          smt,
		Cache:        dpbp.NewRunCache(),
	}

	if err := runObs(ctx, os.Stdout, expName, format, opts, oo); err != nil {
		fmt.Fprintln(os.Stderr, "dpbp:", err)
		return 1
	}
	return 0
}

// parseBenchList splits a -bench argument; empty means all benchmarks.
func parseBenchList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// run executes the named experiment(s) and renders them to w. It is the
// whole CLI behind flag parsing, so tests can drive it directly.
func run(ctx context.Context, w io.Writer, name, format string, opts dpbp.ExperimentOptions) error {
	return runObs(ctx, w, name, format, opts, obsOpts{})
}

// runObs is run plus the observability outputs: with tracing or metrics
// requested a collector is attached to every timing run, a metrics
// section is appended after the experiment sections, and the collected
// trace is written as its own file (the rendered output is unchanged by
// -trace alone). The trace file is created before any experiment runs,
// so a bad path fails before anything is written to w, and it is
// written even when the run fails, so it always holds a trace document.
func runObs(ctx context.Context, w io.Writer, name, format string, opts dpbp.ExperimentOptions, oo obsOpts) (err error) {
	if err := checkFormat(format); err != nil {
		return err
	}
	if oo.enabled() && opts.Trace == nil {
		opts.Trace = dpbp.NewTraceCollector()
	}
	if oo.traceFile != "" {
		f, createErr := os.Create(oo.traceFile)
		if createErr != nil {
			return createErr
		}
		defer func() {
			if werr := errors.Join(dpbp.WriteChromeTrace(f, opts.Trace), f.Close()); err == nil {
				err = werr
			}
		}()
	}
	sections, err := exp.Collect(ctx, name, opts)
	if err != nil {
		return err
	}
	if oo.metrics {
		sections = append(sections, results.Section{Key: "metrics", Val: buildMetrics(sections, opts)})
	}
	return report.RenderSections(w, format, sections)
}

// buildMetrics unifies the experiment's statistics into one registry:
// per-variant sums of the timing-run statistics (from the Figure 7 run
// sets, which carry complete cpu.Results), run-cache traffic, and —
// when tracing — the per-kind event counts and delivery-slack
// histograms, whose totals reconcile exactly with the summed statistics.
func buildMetrics(sections []results.Section, opts dpbp.ExperimentOptions) *dpbp.MetricsRegistry {
	reg := dpbp.NewMetricsRegistry()
	addRun := func(prefix string, r *dpbp.Result) {
		if r == nil {
			return
		}
		reg.Add(prefix+".insts", r.Insts)
		reg.Add(prefix+".cycles", r.Cycles)
		reg.Add(prefix+".branches", r.Branches)
		reg.Add(prefix+".hw_mispredicts", r.HWMispredicts)
		reg.Add(prefix+".mispredicts", r.Mispredicts)
		reg.AddStruct(prefix+".micro", r.Micro)
		reg.AddStruct(prefix+".pathcache", r.PathCache)
		reg.AddStruct(prefix+".pcache", r.PCache)
		reg.AddStruct(prefix+".build", r.Build)
		reg.AddStruct(prefix+".pred", r.PredStats)
		reg.AddStruct(prefix+".backend", r.Backend)
	}
	for _, s := range sections {
		if f7, ok := s.Val.(*dpbp.Figure7Result); ok {
			for _, r := range f7.Runs {
				addRun("fig7.base", r.Base)
				addRun("fig7.no_prune", r.NoPrune)
				addRun("fig7.prune", r.Prune)
				addRun("fig7.overhead", r.Overhead)
			}
		}
	}
	if opts.Cache != nil {
		reg.AddStruct("runcache", opts.Cache.Stats())
	}
	if opts.Trace != nil {
		opts.Trace.AddTo(reg)
	}
	return reg
}

// checkBackend rejects unknown -bpred names before any experiment runs;
// empty means the default (hybrid).
func checkBackend(name string) error {
	if name == "" {
		return nil
	}
	for _, b := range dpbp.PredictorBackends() {
		if name == b {
			return nil
		}
	}
	return fmt.Errorf("unknown predictor backend %q (have %v)", name, dpbp.PredictorBackends())
}

// checkFormat rejects unknown formats before any experiment runs.
func checkFormat(format string) error {
	for _, f := range append([]string{""}, report.Formats()...) {
		if format == f {
			return nil
		}
	}
	return fmt.Errorf("unknown format %q (have %v)", format, report.Formats())
}
