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
	// BPred names the direction-predictor backend every timing run uses
	// (see bpred.Backends; empty is the paper's hybrid). The shootout
	// experiment varies the backend itself and ignores it.
	BPred string
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
				g.Fingerprint() // hash once here, before the sweeps share g
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

// timedRun executes one cancellable timing run, memoized through o.Cache
// when one is set. A config carrying an OnBuild hook or a tracer is
// observable (the hook sees every built routine, the tracer every
// lifecycle event), so it always runs fresh and uncached.
func timedRun(ctx context.Context, o Options, prog *program.Program, cfg cpu.Config) (*cpu.Result, error) {
	if o.Trace != nil {
		cfg.Obs = o.Trace.StartRun(runName(prog, cfg))
	}
	if o.Cache == nil || cfg.OnBuild != nil || cfg.Obs != nil {
		return pooledRun(ctx, prog, cfg)
	}
	key := runcache.KeyOf("cpu", prog.Fingerprint(), cfg.Canonical())
	v, err := o.Cache.Do(ctx, key, func() (any, error) {
		return pooledRun(ctx, prog, cfg)
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

// pooledRun executes one timing run on a pooled machine.
func pooledRun(ctx context.Context, prog *program.Program, cfg cpu.Config) (*cpu.Result, error) {
	m := machines.Get()
	r, err := m.RunContext(ctx, prog, cfg)
	machines.Put(m)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// profileRun executes one functional profiling run, memoized through
// o.Cache when one is set.
func profileRun(ctx context.Context, o Options, prog *program.Program, cfg pathprof.Config) (*pathprof.Profile, error) {
	if o.Cache == nil {
		return pathprof.Run(prog, cfg), nil
	}
	key := runcache.KeyOf("pathprof", prog.Fingerprint(), cfg.Canonical())
	v, err := o.Cache.Do(ctx, key, func() (any, error) {
		return pathprof.Run(prog, cfg), nil
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
	cfg.BPred.Name = o.BPred
	return cfg
}

var profileConfig = func(o Options) pathprof.Config {
	cfg := pathprof.DefaultConfig()
	cfg.MaxInsts = o.ProfileInsts
	return cfg
}
