package exp

import (
	"context"

	"dpbp/internal/cpu"
	"dpbp/internal/program"
	"dpbp/internal/results"
)

// ablationConfigs enumerates the studied variants. The first entry is the
// paper's default mechanism.
func ablationConfigs() []struct {
	name string
	mut  func(*cpu.Config)
} {
	return []struct {
		name string
		mut  func(*cpu.Config)
	}{
		{"default (paper)", func(c *cpu.Config) {}},
		{"no pruning", func(c *cpu.Config) { c.Pruning = false }},
		{"abort off", func(c *cpu.Config) { c.AbortEnabled = false }},
		{"allocate-always Path Cache", func(c *cpu.Config) { c.PathCache.AllocateAlways = true }},
		{"plain-LRU Path Cache", func(c *cpu.Config) { c.PathCache.PlainLRU = true }},
		{"training interval 8", func(c *cpu.Config) { c.PathCache.TrainInterval = 8 }},
		{"training interval 128", func(c *cpu.Config) { c.PathCache.TrainInterval = 128 }},
		{"Prediction Cache 16", func(c *cpu.Config) { c.PCacheEntries = 16 }},
		{"Prediction Cache unbounded", func(c *cpu.Config) { c.PCacheEntries = 64 << 10 }},
		{"no rebuild on violation", func(c *cpu.Config) { c.RebuildOnViolation = false }},
		{"spawn throttle on", func(c *cpu.Config) { c.Throttle = true }},
		{"4 microcontexts", func(c *cpu.Config) { c.Microcontexts = 4 }},
		{"64 microcontexts", func(c *cpu.Config) { c.Microcontexts = 64 }},
		{"build latency 1000", func(c *cpu.Config) { c.BuildLatency = 1000 }},
		{"wrong-path spawns on", func(c *cpu.Config) { c.WrongPathSpawns = true }},
	}
}

// Ablations runs every variant across the selected benchmarks,
// quantifying the design choices DESIGN.md calls out as geomean speed-ups
// over each benchmark's baseline. One row per benchmark holds its
// baseline run and every variant, so a failed run drops its benchmark
// from every variant's geomean and is named by benchmark in the result's
// Errors. With no completed benchmark there is no geomean, so no row.
func Ablations(ctx context.Context, o Options) (*results.AblationResult, error) {
	o = o.withDefaults()
	cfgs := ablationConfigs()
	speeds, runErrs, err := perBench(ctx, o, func(ctx context.Context, prog *program.Program) ([]float64, error) {
		base, err := timedRun(ctx, o, prog, "baseline", timingConfig(o, cpu.ModeBaseline, false, false))
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(cfgs))
		for ci, c := range cfgs {
			cfg := timingConfig(o, cpu.ModeMicrothread, true, true)
			c.mut(&cfg)
			r, err := timedRun(ctx, o, prog, c.name, cfg)
			if err != nil {
				return nil, err
			}
			row[ci] = r.Speedup(base)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &results.AblationResult{Rows: make([]results.AblationRow, 0, len(cfgs)), Errors: runErrs}
	if len(speeds) == 0 {
		return res, nil
	}
	for ci, c := range cfgs {
		xs := make([]float64, len(speeds))
		for i, row := range speeds {
			xs[i] = row[ci]
		}
		res.Rows = append(res.Rows, results.AblationRow{Name: c.name, Speedup: results.Geomean(xs)})
	}
	return res, nil
}
