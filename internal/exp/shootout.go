package exp

import (
	"context"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/program"
	"dpbp/internal/results"
)

// ShootoutResult re-exports the typed result.
type ShootoutResult = results.ShootoutResult

// shootoutContenders are the arena's contenders. The first entry is the
// reference (the Table 3 baseline machine with the hybrid predictor);
// every speedup in the table is relative to it. Every contender names
// its backend, so Options.BPred never reaches a run.
var shootoutContenders = []struct {
	name    string
	micro   bool // the full mechanism with pruning, else the baseline machine
	backend string
	gate    bool // cpu.Config.H2PSpawnGate
}{
	{"hybrid", false, bpred.BackendHybrid, false},
	{"tage", false, bpred.BackendTAGE, false},
	{"h2p-side", false, bpred.BackendH2P, false},
	{"uthread+hybrid", true, bpred.BackendHybrid, false},
	{"uthread+tage", true, bpred.BackendTAGE, false},
	{"uthread+h2p-gate", true, bpred.BackendHybrid, true},
}

// Shootout pits the predictor backends against the microthread
// machinery: for every benchmark it runs the baseline machine under the
// hybrid, TAGE, and H2P-side backends, the microthread mechanism over
// the hybrid and TAGE backends, and the H2P-gated microthread variant,
// reporting IPC, speedup over the hybrid baseline, and misprediction
// rate. One row per benchmark holds every contender's run, the
// reference first, so a failed run drops its benchmark from every
// column and is named by benchmark in Errors.
func Shootout(ctx context.Context, o Options) (*results.ShootoutResult, error) {
	o = o.withDefaults()
	cfgs := shootoutContenders
	rows, runErrs, err := perBench(ctx, o, func(ctx context.Context, prog *program.Program) (results.ShootoutRow, error) {
		row := results.ShootoutRow{Bench: prog.Name, Cells: make([]results.ShootoutCell, len(cfgs))}
		var ref *cpu.Result
		for ci, c := range cfgs {
			cfg := timingConfig(o, cpu.ModeBaseline, false, false)
			if c.micro {
				cfg = timingConfig(o, cpu.ModeMicrothread, true, true)
			}
			cfg.BPred = c.backend
			cfg.H2PSpawnGate = c.gate
			r, err := timedRun(ctx, o, prog, c.name, cfg)
			if err != nil {
				return results.ShootoutRow{}, err
			}
			if ci == 0 {
				ref = r
			}
			row.Cells[ci] = results.ShootoutCell{
				IPC:           r.IPC(),
				Speedup:       r.Speedup(ref),
				MispredictPct: 100 * r.MispredictRate(),
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &results.ShootoutResult{Configs: make([]string, len(cfgs)), Rows: rows, Errors: runErrs}
	for ci, c := range cfgs {
		res.Configs[ci] = c.name
	}
	if len(rows) == 0 {
		return res, nil
	}
	res.Geomean = make([]float64, len(cfgs))
	for ci := range cfgs {
		xs := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = r.Cells[ci].Speedup
		}
		res.Geomean[ci] = results.Geomean(xs)
	}
	return res, nil
}
