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
	"fmt"
	"slices"

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
	// Benchmarks selects the workloads; empty means all twenty. SMT
	// refuses it: Options.SMT picks the study's mix.
	Benchmarks []string
	// TimingInsts bounds each timing run (default 400k).
	TimingInsts uint64
	// ProfileInsts bounds each functional profiling run (default 1M, at
	// most pathprof.MaxProfileInsts). Every experiment refuses a larger
	// one before any row starts, whether it profiles or not.
	ProfileInsts uint64
	// Parallelism bounds concurrent benchmark runs (default GOMAXPROCS).
	Parallelism int
	// Cache, when non-nil, memoizes timing runs, profiling runs, and
	// generated benchmark programs, keyed by benchmark name plus
	// canonicalized configuration. Because the simulator is
	// bit-deterministic, a cached result is identical to a fresh one;
	// sharing one Cache across experiments makes each unique run compute
	// exactly once (e.g. the figure sweeps re-request the same baseline
	// runs). Cached values are shared and must be treated as immutable,
	// which every consumer in this package honours.
	Cache *runcache.Cache
	// Trace, when non-nil, attaches a lifecycle tracer to every timing
	// run, named "<bench>/<variant>" by the experiment that defines the
	// variant, or "<mix>/<sharing>" for an SMT run. Traced runs bypass the
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
	// reads it; every other experiment refuses an enabled one.
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
	return o
}

// programs generates the named benchmarks, failing fast on bad names.
// With a cache, generation is memoized by name (the generator is
// deterministic), so every run in the cache's lifetime shares one
// immutable Program per name.
func (o Options) programs(names []string) ([]*program.Program, error) {
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
			func() (any, error) { return synth.Generate(p), nil })
		if err != nil {
			return nil, err
		}
		progs[i] = v.(*program.Program)
	}
	return progs, nil
}

// testHookBeforeRun, when non-nil, runs at the start of every row that
// rows starts, with the row's name. Tests use it to seed a panic or a
// cancellation in one row and assert the rest of the sweep survives.
var testHookBeforeRun func(name string)

// machines recycles timing machines across runs and experiments; see
// cpu.Pool. BenchmarkAblationSweepAllocs measures what this saves.
var machines cpu.Pool

// timedRun executes one cancellable timing run, memoized through o.Cache
// when one is set. The key names the program by benchmark name, which is
// sound because every program this package runs comes from programs,
// and programs memoizes one Program per name in the same cache. A
// config carrying an OnBuild or OnRetire hook or a tracer is observable
// (the hooks see every built routine or retired instruction, the tracer
// every lifecycle event), so it always runs fresh and uncached. name is
// the variant the caller's table gives the run; a traced run is named
// "<bench>/<name>".
func timedRun(ctx context.Context, o Options, prog *program.Program, name string, cfg cpu.Config) (*cpu.Result, error) {
	if o.Trace != nil {
		cfg.Obs = o.Trace.StartRun(prog.Name + "/" + name)
	}
	if o.Cache == nil || cfg.OnBuild != nil || cfg.OnRetire != nil || cfg.Obs != nil {
		return pooledRun(ctx, prog, cfg)
	}
	key := runcache.KeyOf("cpu", prog.Name, cfg.Canonical())
	v, err := o.Cache.Do(ctx, key, func() (any, error) {
		return pooledRun(ctx, prog, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*cpu.Result), nil
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

// profileRun executes one cancellable functional profiling run, memoized
// through o.Cache when one is set and keyed by benchmark name like
// timedRun.
func profileRun(ctx context.Context, o Options, prog *program.Program, cfg pathprof.Config) (*pathprof.Profile, error) {
	if o.Cache == nil {
		return pathprof.RunContext(ctx, prog, cfg)
	}
	key := runcache.KeyOf("pathprof", prog.Name, cfg.Canonical())
	v, err := o.Cache.Do(ctx, key, func() (any, error) {
		return pathprof.RunContext(ctx, prog, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*pathprof.Profile), nil
}

// rows is the experiments' one fan-out: it runs row once per named unit
// through sched, starting no row once ctx has ended. It returns the
// completed rows in unit order and one RunError, named by the unit, per
// row that failed. The row slice is never nil, so a sweep with no
// completed row still renders an empty list.
func rows[T any](ctx context.Context, o Options, names []string,
	row func(ctx context.Context, i int) (T, error)) ([]T, []results.RunError) {
	out := make([]T, len(names))
	errs := sched.Run(ctx, len(names), sched.Options{Parallelism: o.Parallelism}, func(ctx context.Context, i int) error {
		if h := testHookBeforeRun; h != nil {
			h(names[i])
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		out[i], err = row(ctx, i)
		return err
	})
	done := make([]T, 0, len(names))
	var runErrs []results.RunError
	for i, err := range errs {
		if err != nil {
			runErrs = append(runErrs, results.RunError{Bench: names[i], Err: err.Error()})
		} else {
			done = append(done, out[i])
		}
	}
	return done, runErrs
}

// perBench generates the selected programs and runs rows over them, one
// row per benchmark, named by benchmark. A name listed twice is refused
// like an unknown one: its rows would count twice in every geomean, and
// a RunError could not say which copy failed. Every experiment but SMT
// runs through perBench, and none of them reads Options.SMT, so an
// enabled one is refused rather than silently dropped. So is a
// ProfileInsts above pathprof.MaxProfileInsts, by the experiments that
// profile and by those that do not.
func perBench[T any](ctx context.Context, o Options,
	row func(ctx context.Context, prog *program.Program) (T, error)) ([]T, []results.RunError, error) {
	if o.SMT.Enabled() {
		return nil, nil, fmt.Errorf("exp: only the smt study (-exp smt) reads Options.SMT (-smt)")
	}
	if err := profileConfig(o).Validate(); err != nil {
		return nil, nil, err
	}
	for i, name := range o.Benchmarks {
		if slices.Contains(o.Benchmarks[:i], name) {
			return nil, nil, fmt.Errorf("exp: benchmark %q listed twice", name)
		}
	}
	progs, err := o.programs(o.Benchmarks)
	if err != nil {
		return nil, nil, err
	}
	done, runErrs := rows(ctx, o, o.Benchmarks, func(ctx context.Context, i int) (T, error) {
		return row(ctx, progs[i])
	})
	return done, runErrs, nil
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
