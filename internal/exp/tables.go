package exp

import (
	"context"

	"dpbp/internal/pathprof"
	"dpbp/internal/program"
	"dpbp/internal/results"
)

// Thresholds are the difficulty thresholds of Tables 1 and 2.
var Thresholds = []float64{0.05, 0.10, 0.15}

// PathLengths are the path lengths of Tables 1 and 2 and Figure 6.
var PathLengths = []int{4, 10, 16}

// Result types are defined in internal/results; the aliases keep the
// experiment entry points and their return types importable from one
// package.
type (
	Table1Result        = results.Table1Result
	Table2Result        = results.Table2Result
	Figure6Result       = results.Figure6Result
	Figure7Runs         = results.Figure7Runs
	Figure7Result       = results.Figure7Result
	Figure8Result       = results.Figure8Result
	Figure9Result       = results.Figure9Result
	PerfectResult       = results.PerfectResult
	ProfileGuidedResult = results.ProfileGuidedResult
	AblationResult      = results.AblationResult
)

// table1Cells normalises the profiler's per-n rows (threshold map keyed
// by T) into cells whose Difficult slice is parallel to Thresholds.
func table1Cells(rows []pathprof.Table1Row) []results.Table1Cell {
	cells := make([]results.Table1Cell, len(rows))
	for i, r := range rows {
		c := results.Table1Cell{
			N:           r.N,
			UniquePaths: r.UniquePaths,
			AvgScope:    r.AvgScope,
			Difficult:   make([]int, len(Thresholds)),
		}
		for ti, t := range Thresholds {
			c.Difficult[ti] = r.DifficultAt[t]
		}
		cells[i] = c
	}
	return cells
}

// Table1 runs the functional path profiler over the selected benchmarks.
func Table1(ctx context.Context, o Options) (*results.Table1Result, error) {
	o = o.withDefaults()
	rows, runErrs, err := perBench(ctx, o, func(ctx context.Context, prog *program.Program) (results.Table1Row, error) {
		p, err := profileRun(ctx, o, prog, profileConfig(o))
		if err != nil {
			return results.Table1Row{}, err
		}
		return results.Table1Row{Bench: prog.Name, ByN: table1Cells(p.Table1(Thresholds))}, nil
	})
	if err != nil {
		return nil, err
	}
	return &results.Table1Result{
		PathLengths: PathLengths,
		Thresholds:  Thresholds,
		Rows:        rows,
		Errors:      runErrs,
	}, nil
}

// table2Blocks normalises the profiler's per-threshold rows (path-length
// map keyed by n) into blocks whose ByN slice is parallel to PathLengths.
func table2Blocks(rows []pathprof.Table2Row) []results.Table2Block {
	blocks := make([]results.Table2Block, len(rows))
	for i, r := range rows {
		b := results.Table2Block{
			T:      r.T,
			Branch: results.Coverage{MisPct: r.Branch.MisPct, ExePct: r.Branch.ExePct},
			ByN:    make([]results.Coverage, len(PathLengths)),
		}
		for ni, n := range PathLengths {
			c := r.ByN[n]
			b.ByN[ni] = results.Coverage{MisPct: c.MisPct, ExePct: c.ExePct}
		}
		blocks[i] = b
	}
	return blocks
}

// Table2 runs the functional path profiler over the selected benchmarks.
func Table2(ctx context.Context, o Options) (*results.Table2Result, error) {
	o = o.withDefaults()
	rows, runErrs, err := perBench(ctx, o, func(ctx context.Context, prog *program.Program) (results.Table2Row, error) {
		p, err := profileRun(ctx, o, prog, profileConfig(o))
		if err != nil {
			return results.Table2Row{}, err
		}
		return results.Table2Row{Bench: prog.Name, ByT: table2Blocks(p.Table2(Thresholds))}, nil
	})
	if err != nil {
		return nil, err
	}
	return &results.Table2Result{
		PathLengths: PathLengths,
		Thresholds:  Thresholds,
		Rows:        rows,
		Errors:      runErrs,
	}, nil
}
