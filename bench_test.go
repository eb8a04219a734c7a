package dpbp

// One benchmark target per table and figure in the paper's evaluation,
// plus an ablation bench for the design choices DESIGN.md calls out and a
// raw-simulator throughput bench. Each experiment bench runs the full
// twenty-benchmark suite at a reduced instruction budget and reports the
// headline metric the paper's artefact would be judged by; the dpbp
// command regenerates the full-size tables.

import (
	"context"
	"math"
	"strings"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/synth"
)

// benchOpts returns budgets sized so a full-suite experiment fits in a
// benchmark iteration.
func benchOpts() ExperimentOptions {
	return ExperimentOptions{TimingInsts: 150_000, ProfileInsts: 200_000}
}

// BenchmarkTable1 regenerates Table 1 (unique paths, scope, difficult
// paths) across the suite; reports the n=10 average difficult-path count.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Table1(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var d10 float64
		for _, row := range r.Rows {
			d10 += float64(row.ByN[1].Difficult[1])
		}
		b.ReportMetric(d10/float64(len(r.Rows)), "difficult-paths(n=10,T=.10)")
	}
}

// BenchmarkTable2 regenerates Table 2 (coverage); reports the n=10 T=.10
// average misprediction coverage.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Table2(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var mis float64
		for _, row := range r.Rows {
			mis += row.ByT[1].ByN[1].MisPct // T=.10 block, n=10 column
		}
		b.ReportMetric(mis/float64(len(r.Rows)), "mis-coverage-pct(n=10,T=.10)")
	}
}

// BenchmarkFigure6 regenerates Figure 6 (potential speed-up); reports the
// n=10 geomean speed-up in percent.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Figure6(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.Geomean[10]-1), "potential-speedup-pct")
	}
}

// figure7Metrics extracts the three Figure 7 geomeans.
func figure7Metrics(runs []Figure7Runs) (np, pr, ov float64) {
	gnp, gpr, gov := 1.0, 1.0, 1.0
	for _, r := range runs {
		gnp *= r.NoPrune.Speedup(r.Base)
		gpr *= r.Prune.Speedup(r.Base)
		gov *= r.Overhead.Speedup(r.Base)
	}
	n := float64(len(runs))
	root := func(x float64) float64 {
		if n == 0 {
			return 1
		}
		return math.Pow(x, 1/n)
	}
	return 100 * (root(gnp) - 1), 100 * (root(gpr) - 1), 100 * (root(gov) - 1)
}

// BenchmarkFigure7 regenerates Figure 7 (realistic speed-up); reports the
// pruning geomean speed-up in percent.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _, err := RunFigure7Set(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		np, pr, ov := figure7Metrics(runs)
		b.ReportMetric(pr, "pruning-speedup-pct")
		b.ReportMetric(np, "nopruning-speedup-pct")
		b.ReportMetric(ov, "overhead-speedup-pct")
	}
}

// BenchmarkFigure8 regenerates Figure 8 (routine size / dependence chain);
// reports the pruned average routine size.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _, err := RunFigure7Set(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var size, chain, n float64
		for _, r := range runs {
			if r.Prune.Build.Builds == 0 {
				continue
			}
			size += r.Prune.AvgRoutineSize
			chain += r.Prune.AvgDepChain
			n++
		}
		if n > 0 {
			b.ReportMetric(size/n, "avg-routine-size")
			b.ReportMetric(chain/n, "avg-dep-chain")
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (timeliness); reports the pruned
// early-arrival percentage.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, _, err := RunFigure7Set(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var early, total uint64
		for _, r := range runs {
			early += r.Prune.Micro.Early
			total += r.Prune.Micro.Early + r.Prune.Micro.Late + r.Prune.Micro.Useless
		}
		if total > 0 {
			b.ReportMetric(100*float64(early)/float64(total), "early-pct")
		}
	}
}

// BenchmarkPerfect regenerates the Section 1 perfect-prediction bound;
// reports the geomean speed-up as a multiplier.
func BenchmarkPerfect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Perfect(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeomeanSpeedup, "perfect-speedup-x")
	}
}

// expAll runs every section `dpbp -exp all` renders, against one shared
// options value.
func expAll(b *testing.B, o ExperimentOptions) {
	b.Helper()
	ctx := context.Background()
	if _, err := Table1(ctx, o); err != nil {
		b.Fatal(err)
	}
	if _, err := Table2(ctx, o); err != nil {
		b.Fatal(err)
	}
	if _, err := Perfect(ctx, o); err != nil {
		b.Fatal(err)
	}
	if _, err := Figure6(ctx, o); err != nil {
		b.Fatal(err)
	}
	if _, _, err := RunFigure7Set(ctx, o); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExpAll measures the whole `dpbp -exp all` computation —
// every table and figure against one options value — with and without
// the run cache. The gap is what memoization buys: the sections
// re-request each benchmark's baseline run and share one profile, so
// the cached variant computes each unique run exactly once (see
// EXPERIMENTS.md for recorded numbers).
func BenchmarkExpAll(b *testing.B) {
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			expAll(b, benchOpts())
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := benchOpts()
			o.Cache = NewRunCache() // fresh per iteration: measure fill, not reuse
			expAll(b, o)
		}
	})
}

// BenchmarkAblations runs the ablation study (DESIGN.md §5) on comp,
// vortex and go at 150K instructions and reports every variant's geomean
// speed-up over baseline, in percent, under the variant's row name.
func BenchmarkAblations(b *testing.B) {
	o := ExperimentOptions{Benchmarks: []string{"comp", "vortex", "go"}, TimingInsts: 150_000}
	for i := 0; i < b.N; i++ {
		r, err := Ablations(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			// ReportMetric rejects units containing whitespace.
			unit := strings.Join(strings.Fields(row.Name), "-") + "-speedup-pct"
			b.ReportMetric(100*(row.Speedup-1), unit)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw timing-simulator speed in
// simulated instructions per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := synth.ProfileByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := synth.Generate(p)
	cfg := cpu.DefaultConfig()
	cfg.MaxInsts = 200_000
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		r := cpu.Run(prog, cfg)
		insts += r.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkPathProfiler measures raw functional-profiler speed.
func BenchmarkPathProfiler(b *testing.B) {
	w := MustWorkload("go")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Profile(w, PathProfileConfig{MaxInsts: 200_000})
	}
}

// allocSweepConfigs returns mechanism variants that keep component sizes
// fixed, so a reused machine resets in place instead of reallocating.
func allocSweepConfigs() []MachineConfig {
	mk := func(mut func(*MachineConfig)) MachineConfig {
		c := cpu.DefaultConfig()
		c.MaxInsts = 20_000
		mut(&c)
		return c
	}
	return []MachineConfig{
		mk(func(c *MachineConfig) {}),
		mk(func(c *MachineConfig) { c.Pruning = false }),
		mk(func(c *MachineConfig) { c.AbortEnabled = false }),
		mk(func(c *MachineConfig) { c.PathCache.PlainLRU = true }),
		mk(func(c *MachineConfig) { c.PathCache.TrainInterval = 8 }),
		mk(func(c *MachineConfig) { c.Throttle = true }),
	}
}

// BenchmarkAblationSweepAllocs quantifies what machine reuse buys the
// experiment harness: the same six-variant sweep run on fresh machines
// vs a cpu.Pool. Run with -benchmem; the pooled variant should allocate
// materially less (see EXPERIMENTS.md for recorded numbers).
func BenchmarkAblationSweepAllocs(b *testing.B) {
	w := MustWorkload("comp")
	cfgs := allocSweepConfigs()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				cpu.Run(w.Program, cfg)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		var pool cpu.Pool
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				m := pool.Get()
				if _, err := m.RunContext(context.Background(), w.Program, cfg); err != nil {
					b.Fatal(err)
				}
				pool.Put(m)
			}
		}
	})
}
