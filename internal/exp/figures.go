package exp

import (
	"context"
	"strconv"

	"dpbp/internal/cpu"
	"dpbp/internal/program"
	"dpbp/internal/results"
)

// Figure6 runs baseline plus one potential run per path length: the
// potential IPC speed-up from perfectly predicting the terminating
// branches of promoted difficult paths, with a realistic 8K Path Cache
// (T=.10, training interval 32, 8K MicroRAM), for n in {4, 10, 16}.
func Figure6(ctx context.Context, o Options) (*results.Figure6Result, error) {
	o = o.withDefaults()
	rows, runErrs, err := perBench(ctx, o, func(ctx context.Context, prog *program.Program) (results.Figure6Row, error) {
		base, err := timedRun(ctx, o, prog, "baseline", timingConfig(o, cpu.ModeBaseline, false, false))
		if err != nil {
			return results.Figure6Row{}, err
		}
		row := results.Figure6Row{
			Bench:       prog.Name,
			BaselineIPC: base.IPC(),
			SpeedupByN:  map[int]float64{},
		}
		for _, n := range PathLengths {
			// A path length other than the default is named "+n<N>".
			cfg := timingConfig(o, cpu.ModePerfectPromoted, false, false)
			name := "potential"
			if n != cfg.N {
				name += "+n" + strconv.Itoa(n)
			}
			cfg.N = n
			pot, err := timedRun(ctx, o, prog, name, cfg)
			if err != nil {
				return results.Figure6Row{}, err
			}
			row.SpeedupByN[n] = pot.Speedup(base)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &results.Figure6Result{PathLengths: PathLengths, Rows: rows, Errors: runErrs}
	if len(rows) == 0 {
		return res, nil
	}
	res.Geomean = map[int]float64{}
	for _, n := range PathLengths {
		var xs []float64
		for _, r := range res.Rows {
			xs = append(xs, r.SpeedupByN[n])
		}
		res.Geomean[n] = results.Geomean(xs)
	}
	return res, nil
}

// RunFigure7Set performs the four timing runs behind Figures 7, 8, and 9
// (n=10, T=.10, build latency 100) for every selected benchmark:
// baseline, microthreads without pruning, with pruning, and
// overhead-only. Benchmarks that fail are dropped from the run set and
// reported in the returned error list.
func RunFigure7Set(ctx context.Context, o Options) ([]results.Figure7Runs, []results.RunError, error) {
	o = o.withDefaults()
	return perBench(ctx, o, func(ctx context.Context, prog *program.Program) (results.Figure7Runs, error) {
		r := results.Figure7Runs{Bench: prog.Name}
		type slot struct {
			dst     **cpu.Result
			name    string
			mode    cpu.Mode
			pruning bool
			preds   bool
		}
		for _, s := range []slot{
			{&r.Base, "baseline", cpu.ModeBaseline, false, false},
			{&r.NoPrune, "microthread", cpu.ModeMicrothread, false, true},
			{&r.Prune, "microthread+prune", cpu.ModeMicrothread, true, true},
			{&r.Overhead, "microthread+overhead-only", cpu.ModeMicrothread, false, false},
		} {
			res, err := timedRun(ctx, o, prog, s.name, timingConfig(o, s.mode, s.pruning, s.preds))
			if err != nil {
				return results.Figure7Runs{}, err
			}
			*s.dst = res
		}
		return r, nil
	})
}

// Figure7 performs the runs for Figure 7: realistic speed-up with and
// without pruning, and the overhead-only configuration.
func Figure7(ctx context.Context, o Options) (*results.Figure7Result, error) {
	runs, runErrs, err := RunFigure7Set(ctx, o)
	if err != nil {
		return nil, err
	}
	return &results.Figure7Result{Runs: runs, Errors: runErrs}, nil
}

// Figure8 performs the runs for Figure 8: average routine size and
// average longest dependence chain, with and without pruning.
func Figure8(ctx context.Context, o Options) (*results.Figure8Result, error) {
	runs, runErrs, err := RunFigure7Set(ctx, o)
	if err != nil {
		return nil, err
	}
	return &results.Figure8Result{Runs: runs, Errors: runErrs}, nil
}

// Figure8FromRuns builds Figure 8 from an existing Figure 7 run set.
func Figure8FromRuns(runs []results.Figure7Runs) *results.Figure8Result {
	return &results.Figure8Result{Runs: runs}
}

// Figure9 performs the runs for Figure 9: prediction timeliness (early,
// late, useless) without and with pruning.
func Figure9(ctx context.Context, o Options) (*results.Figure9Result, error) {
	runs, runErrs, err := RunFigure7Set(ctx, o)
	if err != nil {
		return nil, err
	}
	return &results.Figure9Result{Runs: runs, Errors: runErrs}, nil
}

// Figure9FromRuns builds Figure 9 from an existing Figure 7 run set.
func Figure9FromRuns(runs []results.Figure7Runs) *results.Figure9Result {
	return &results.Figure9Result{Runs: runs}
}

// Perfect runs baseline and perfect-prediction configurations for the
// Section 1 claim: the IPC available from perfect prediction of all
// branches over the aggressive baseline.
func Perfect(ctx context.Context, o Options) (*results.PerfectResult, error) {
	o = o.withDefaults()
	rows, runErrs, err := perBench(ctx, o, func(ctx context.Context, prog *program.Program) (results.PerfectRow, error) {
		base, err := timedRun(ctx, o, prog, "baseline", timingConfig(o, cpu.ModeBaseline, false, false))
		if err != nil {
			return results.PerfectRow{}, err
		}
		perf, err := timedRun(ctx, o, prog, "perfect", timingConfig(o, cpu.ModePerfectAll, false, false))
		if err != nil {
			return results.PerfectRow{}, err
		}
		return results.PerfectRow{
			Bench:              prog.Name,
			BaselineIPC:        base.IPC(),
			PerfectIPC:         perf.IPC(),
			Speedup:            perf.Speedup(base),
			BaselineMisprRatio: base.MispredictRate(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &results.PerfectResult{Rows: rows, Errors: runErrs}
	var xs []float64
	for _, r := range res.Rows {
		xs = append(xs, r.Speedup)
	}
	res.GeomeanSpeedup = results.Geomean(xs)
	return res, nil
}
