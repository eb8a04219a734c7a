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
// rate. A failed run costs only its (config, benchmark) cell, recorded
// in Errors as "config/bench".
func Shootout(ctx context.Context, o Options) (*results.ShootoutResult, error) {
	o = o.withDefaults()
	progs, err := o.programs()
	if err != nil {
		return nil, err
	}
	cfgs := shootoutContenders
	res := &results.ShootoutResult{
		Configs: make([]string, len(cfgs)),
		Rows:    make([]results.ShootoutRow, len(progs)),
	}
	for ci, c := range cfgs {
		res.Configs[ci] = c.name
	}
	for i, prog := range progs {
		res.Rows[i] = results.ShootoutRow{
			Bench: prog.Name,
			Cells: make([]results.ShootoutCell, len(cfgs)),
		}
	}

	// Reference runs first: they are every row's denominator.
	refs := make([]*cpu.Result, len(progs))
	run := func(ci int) func(ctx context.Context, i int, prog *program.Program) error {
		return func(ctx context.Context, i int, prog *program.Program) error {
			c := cfgs[ci]
			cfg := timingConfig(o, cpu.ModeBaseline, false, false)
			if c.micro {
				cfg = timingConfig(o, cpu.ModeMicrothread, true, true)
			}
			cfg.BPred.Name = c.backend
			cfg.H2PSpawnGate = c.gate
			r, err := timedRun(ctx, o, prog, cfg)
			if err != nil {
				return err
			}
			cell := &res.Rows[i].Cells[ci]
			cell.IPC = r.IPC()
			cell.MispredictPct = 100 * r.MispredictRate()
			if ci == 0 {
				refs[i] = r
				cell.Speedup = 1
			} else if refs[i] != nil {
				cell.Speedup = r.Speedup(refs[i])
			}
			return nil
		}
	}
	record := func(ci int, errs []error) {
		for i, err := range errs {
			if err != nil {
				res.Errors = append(res.Errors, results.RunError{
					Bench: cfgs[ci].name + "/" + progs[i].Name, Err: err.Error(),
				})
			}
		}
	}
	record(0, sweep(ctx, o, progs, run(0)))
	for ci := 1; ci < len(cfgs); ci++ {
		record(ci, sweep(ctx, o, progs, run(ci)))
	}

	res.Geomean = make([]float64, len(cfgs))
	for ci := range cfgs {
		var xs []float64
		for i := range progs {
			if s := res.Rows[i].Cells[ci].Speedup; s > 0 {
				xs = append(xs, s)
			}
		}
		res.Geomean[ci] = results.Geomean(xs)
	}
	return res, nil
}
