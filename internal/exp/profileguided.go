package exp

import (
	"context"

	"dpbp/internal/cpu"
	"dpbp/internal/pathprof"
	"dpbp/internal/program"
	"dpbp/internal/results"
)

// ProfileGuided is an extension experiment beyond the paper's figures: it
// quantifies the paper's future-work suggestion that better
// difficult-path identification (here, an offline profiling pass feeding
// unconditional promotions) recovers much of the potential the dynamic
// 8K Path Cache leaves on the table. Each benchmark is profiled offline,
// its top difficult paths pre-promoted (n=10, T=.10, up to the 8K
// MicroRAM capacity), and the full mechanism compared under dynamic vs
// guided promotion.
func ProfileGuided(ctx context.Context, o Options) (*results.ProfileGuidedResult, error) {
	o = o.withDefaults()
	pcfg := pathprof.Config{Ns: []int{10}, MaxInsts: o.ProfileInsts}
	rows, runErrs, err := perBench(ctx, o, func(ctx context.Context, prog *program.Program) (results.ProfileGuidedRow, error) {
		prof, err := profileRun(ctx, o, prog, pcfg)
		if err != nil {
			return results.ProfileGuidedRow{}, err
		}
		ids := prof.DifficultPathIDs(10, 0.10, 8<<10)

		base, err := timedRun(ctx, o, prog, "baseline", timingConfig(o, cpu.ModeBaseline, false, false))
		if err != nil {
			return results.ProfileGuidedRow{}, err
		}
		dyn, err := timedRun(ctx, o, prog, "microthread+prune", timingConfig(o, cpu.ModeMicrothread, true, true))
		if err != nil {
			return results.ProfileGuidedRow{}, err
		}
		gcfg := timingConfig(o, cpu.ModeMicrothread, true, true)
		gcfg.PrePromoted = ids
		guided, err := timedRun(ctx, o, prog, "guided", gcfg)
		if err != nil {
			return results.ProfileGuidedRow{}, err
		}

		return results.ProfileGuidedRow{
			Bench:          prog.Name,
			BaselineIPC:    base.IPC(),
			DynamicSpeedup: dyn.Speedup(base),
			GuidedSpeedup:  guided.Speedup(base),
			GuidedPaths:    len(ids),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &results.ProfileGuidedResult{Rows: rows, Errors: runErrs}, nil
}
