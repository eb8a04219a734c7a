// Package exp is the experiment harness: one entry point per table and
// figure in the paper's evaluation (Tables 1-2, Figures 6-9, the
// Section 1 perfect-prediction bound, and the extension studies), each
// returning a typed result from internal/results.
//
// The package is the computation layer of the runner architecture:
// internal/sched fans the selected benchmarks out with bounded
// parallelism, cancellation, and panic isolation; this package fills the
// results model; internal/report renders it. A benchmark that fails —
// panic or cancellation — costs only its own row: the sweep completes,
// and the failure is recorded in the result's Errors.
package exp

import (
	"context"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/obs"
	"dpbp/internal/pathprof"
	"dpbp/internal/program"
	"dpbp/internal/replay"
	"dpbp/internal/results"
	"dpbp/internal/runcache"
	"dpbp/internal/sched"
	"dpbp/internal/synth"
)

// Options controls an experiment run.
type Options struct {
	// Benchmarks selects the workloads; empty means all twenty.
	Benchmarks []string
	// TimingInsts bounds each timing run (default 400k).
	TimingInsts uint64
	// ProfileInsts bounds each functional profiling run (default 1M).
	ProfileInsts uint64
	// Parallelism bounds concurrent benchmark runs (default GOMAXPROCS).
	Parallelism int
	// Cache, when non-nil, memoizes timing runs, profiling runs, and
	// generated benchmark programs by content-addressed key (program
	// fingerprint plus canonicalized configuration). Because the
	// simulator is bit-deterministic, a cached result is identical to a
	// fresh one; sharing one Cache across experiments makes each unique
	// run compute exactly once (e.g. the figure sweeps re-request the
	// same baseline runs). Cached values are shared and must be treated
	// as immutable, which every consumer in this package honours.
	Cache *runcache.Cache
	// Trace, when non-nil, attaches a lifecycle tracer to every timing
	// run (named "<bench>/<mode>[+variant]"). Traced runs bypass the
	// cache: a cache hit would return statistics without replaying the
	// events that reconcile with them.
	Trace *obs.Collector
	// BPred selects the direction-predictor backend every timing run
	// uses (the zero value is the paper's hybrid). The shootout
	// experiment varies the backend itself and only honours the Spec's
	// sizing sections.
	BPred bpred.Spec
	// SMT, when enabled, overrides the SMT interference study's workload
	// mix, fetch policy, and sharing flags (the CLI's -smt flag; see
	// ParseSMTSpec for the spec vocabulary). Only the "smt" experiment
	// reads it.
	SMT cpu.SMTConfig
}

func (o Options) withDefaults() Options {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = synth.Names()
	}
	if o.TimingInsts == 0 {
		o.TimingInsts = defaultTimingInsts
	}
	if o.ProfileInsts == 0 {
		o.ProfileInsts = defaultProfileInsts
	}
	if o.Parallelism <= 0 {
		o.Parallelism = defaultParallelism()
	}
	return o
}

// programs generates the selected benchmarks, failing fast on bad names.
func (o Options) programs() ([]*program.Program, error) {
	return o.programsFor(o.Benchmarks)
}

// programsFor generates the named benchmarks. With a cache, generation
// is memoized by name (the generator is deterministic) and the block
// structure and fingerprint are precomputed, so the shared Program is
// immutable from then on.
func (o Options) programsFor(names []string) ([]*program.Program, error) {
	progs := make([]*program.Program, len(names))
	for i, name := range names {
		p, err := synth.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		if o.Cache == nil {
			progs[i] = synth.Generate(p)
			continue
		}
		v, err := o.Cache.Do(context.Background(), runcache.KeyOf("program", name),
			func() (any, error) {
				g := synth.Generate(p)
				g.Blocks()      // precompute: lazy init would race across sweeps
				g.Fingerprint() // ditto
				return g, nil
			})
		if err != nil {
			return nil, err
		}
		progs[i] = v.(*program.Program)
	}
	return progs, nil
}

func (o Options) schedOptions() sched.Options {
	return sched.Options{Parallelism: o.Parallelism}
}

// testHookBeforeRun, when non-nil, runs at the top of every per-benchmark
// sweep body. Tests use it to seed a panic in one benchmark and assert
// the rest of the sweep survives.
var testHookBeforeRun func(bench string)

// machines recycles timing machines across runs and experiments; see
// cpu.Pool. BenchmarkAblationSweepAllocs measures what this saves.
var machines cpu.Pool

// overlayBudgets returns the record budgets every overlay checkpoints,
// sorted: the timing budget and the profiling budget. One overlay pass
// at the larger serves both kinds of run (predictor decisions for a
// shorter budget are a prefix of those for a longer one), so when the
// profiler and the timing runs share a predictor front-end — they do by
// default — the whole harness simulates each predictor exactly once per
// benchmark.
func overlayBudgets(o Options) []uint64 {
	if o.TimingInsts < o.ProfileInsts {
		return []uint64{o.TimingInsts, o.ProfileInsts}
	}
	if o.TimingInsts > o.ProfileInsts {
		return []uint64{o.ProfileInsts, o.TimingInsts}
	}
	return []uint64{o.TimingInsts}
}

// overlayFor returns the recorded predictor interaction for one
// (predictor front-end, direction backend) pair over prog's stream,
// checkpointed at the harness budgets and memoized in o.Cache. Every
// timing config sharing the pair — all of an ablation's variants, every
// figure sweep point — shares one overlay; the profiler reuses the
// mechanism with the zero backend spec. pcfg and spec must already be
// canonical (they are cache key inputs).
func overlayFor(ctx context.Context, o Options, prog *program.Program,
	pcfg bpred.Config, spec bpred.Spec) (*replay.Overlay, error) {
	budgets := overlayBudgets(o)
	v, err := o.Cache.Do(ctx, runcache.KeyOf("overlay", prog.Fingerprint(), pcfg, spec, budgets),
		func() (any, error) {
			return replay.NewOverlay(prog, pcfg, spec, budgets)
		})
	if err != nil {
		return nil, err
	}
	return v.(*replay.Overlay), nil
}

// timedRun executes one cancellable timing run, memoized through o.Cache
// when one is set. A cache-eligible run reads the branch predictor's
// decisions from the benchmark's shared overlay instead of simulating
// the predictor — bit-identical by construction (see internal/replay),
// held by TestReplayMatchesLive and the oracle — and runs the live
// predictor only when the overlay has no checkpoint for its budget. A
// config carrying an OnBuild hook or a tracer is observable (the hook
// sees every built routine, the tracer every lifecycle event), so it
// always runs fresh and uncached.
func timedRun(ctx context.Context, o Options, prog *program.Program, cfg cpu.Config) (*cpu.Result, error) {
	if o.Trace != nil {
		cfg.Obs = o.Trace.StartRun(runName(prog, cfg))
	}
	if o.Cache == nil || cfg.OnBuild != nil || cfg.Obs != nil {
		return timedRunFrom(ctx, prog, cfg, nil)
	}
	canon := cfg.Canonical()
	key := runcache.KeyOf("cpu", prog.Fingerprint(), canon)
	v, err := o.Cache.Do(ctx, key, func() (any, error) {
		ov, err := overlayFor(ctx, o, prog, canon.Predictor, canon.BPred)
		if err != nil {
			return nil, err
		}
		if _, ok := ov.Checkpoint(canon.MaxInsts); !ok {
			ov = nil
		}
		return timedRunFrom(ctx, prog, cfg, ov)
	})
	if err != nil {
		return nil, err
	}
	return v.(*cpu.Result), nil
}

// runName labels one timing run in trace output: benchmark, mode, and
// the switches that distinguish the sweep variants.
func runName(prog *program.Program, cfg cpu.Config) string {
	name := prog.Name + "/" + cfg.Mode.String()
	if cfg.Mode == cpu.ModeMicrothread {
		if !cfg.UsePredictions {
			name += "+overhead-only"
		}
		if cfg.Pruning {
			name += "+prune"
		}
	}
	if backend := cfg.BPred.Canonical().Name; backend != bpred.BackendHybrid {
		name += "+" + backend
	}
	if cfg.H2PSpawnGate {
		name += "+h2p-gate"
	}
	return name
}

// timedRunFrom executes one timing run on a pooled machine, reading
// predictions from ov (nil means the live predictor).
func timedRunFrom(ctx context.Context, prog *program.Program, cfg cpu.Config, ov *replay.Overlay) (*cpu.Result, error) {
	m := machines.Get()
	r, err := m.RunContextFrom(ctx, prog, cfg, ov)
	machines.Put(m)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// profileRun executes one functional profiling run, memoized through
// o.Cache when one is set. Like timedRun it reads the benchmark's shared
// overlay — the profiler's predictor interaction is an overlay with the
// zero backend spec — and simulates the predictor only when the overlay
// has no checkpoint for its budget.
func profileRun(ctx context.Context, o Options, prog *program.Program, cfg pathprof.Config) (*pathprof.Profile, error) {
	if o.Cache == nil {
		return pathprof.Run(prog, cfg), nil
	}
	canon := cfg.Canonical()
	key := runcache.KeyOf("pathprof", prog.Fingerprint(), canon)
	v, err := o.Cache.Do(ctx, key, func() (any, error) {
		ov, err := overlayFor(ctx, o, prog, canon.Predictor.Canonical(), bpred.Spec{}.Canonical())
		if err != nil {
			return nil, err
		}
		if _, ok := ov.Checkpoint(canon.MaxInsts); !ok {
			return pathprof.Run(prog, cfg), nil
		}
		return pathprof.RunOverlay(prog, ov, canon), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*pathprof.Profile), nil
}

// sweep runs body for every program via the scheduler and returns one
// error per program (nil on success), in program order.
func sweep(ctx context.Context, o Options, progs []*program.Program,
	body func(ctx context.Context, i int, prog *program.Program) error) []error {
	return sched.Run(ctx, len(progs), o.schedOptions(), func(ctx context.Context, i int) error {
		if h := testHookBeforeRun; h != nil {
			h(progs[i].Name)
		}
		return body(ctx, i, progs[i])
	})
}

// runErrors converts a sweep's per-index failures into RunErrors named by
// benchmark.
func runErrors(progs []*program.Program, errs []error) []results.RunError {
	var out []results.RunError
	for i, err := range errs {
		if err != nil {
			out = append(out, results.RunError{Bench: progs[i].Name, Err: err.Error()})
		}
	}
	return out
}

// keepOK compacts rows, dropping every slot whose sweep entry failed, so
// partial results carry only completed rows.
func keepOK[T any](rows []T, errs []error) []T {
	out := make([]T, 0, len(rows))
	for i, r := range rows {
		if errs[i] == nil {
			out = append(out, r)
		}
	}
	return out
}

// timingConfig builds the common Figure 6/7 machine configuration.
func timingConfig(o Options, mode cpu.Mode, pruning, usePreds bool) cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.Mode = mode
	cfg.Pruning = pruning
	cfg.UsePredictions = usePreds
	cfg.MaxInsts = o.TimingInsts
	cfg.BPred = o.BPred
	return cfg
}

var profileConfig = func(o Options) pathprof.Config {
	cfg := pathprof.DefaultConfig()
	cfg.MaxInsts = o.ProfileInsts
	return cfg
}
