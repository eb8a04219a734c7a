package report

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"dpbp/internal/cpu"
	"dpbp/internal/obs"
	"dpbp/internal/results"
)

// Text renders v as the paper-shaped aligned text tables. For complete
// results the bytes are identical to the pre-refactor renderers (the
// golden tests in this package pin that); partial results append an
// explicit error section.
func Text(w io.Writer, v any) error {
	s, err := TextString(v)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, s)
	return err
}

// TextString renders v as text and returns the string.
func TextString(v any) (string, error) {
	switch r := v.(type) {
	case *results.Table1Result:
		return textTable1(r), nil
	case *results.Table2Result:
		return textTable2(r), nil
	case *results.Figure6Result:
		return textFigure6(r), nil
	case *results.Figure7Result:
		return textFigure7(r), nil
	case *results.Figure8Result:
		return textFigure8(r), nil
	case *results.Figure9Result:
		return textFigure9(r), nil
	case *results.PerfectResult:
		return textPerfect(r), nil
	case *results.ProfileGuidedResult:
		return textProfileGuided(r), nil
	case *results.AblationResult:
		return textAblations(r), nil
	case *results.ShootoutResult:
		return textShootout(r), nil
	case *results.SMTResult:
		return textSMT(r), nil
	case *obs.Registry:
		return textMetrics(r), nil
	}
	return "", fmt.Errorf("report: no text renderer for %T", v)
}

// textMetrics renders a metrics registry as an aligned name/value table
// followed by one block per histogram.
func textMetrics(r *obs.Registry) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Metrics")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	for _, c := range r.Counters() {
		fmt.Fprintf(w, "  %s\t%d\n", c.Name, c.Value)
	}
	flushTable(w)
	for _, h := range r.Histograms() {
		fmt.Fprintf(&b, "\n%s: n=%d mean=%.1f max=%d\n",
			h.Name, h.Hist.N(), h.Hist.Mean(), h.Hist.Max())
		for _, bk := range h.Hist.Buckets() {
			fmt.Fprintf(&b, "  [%d,%d): %d\n", bk.Lo, bk.Hi, bk.Count)
		}
	}
	return b.String()
}

// flushTable flushes a tabwriter layered over an in-memory builder,
// where the only possible write failure is a bug in the layout code
// itself — so it is escalated rather than discarded.
func flushTable(w *tabwriter.Writer) {
	if err := w.Flush(); err != nil {
		panic(fmt.Sprintf("report: flushing in-memory table: %v", err))
	}
}

// pct formats a speedup as a signed percentage.
func pct(speedup float64) string {
	return fmt.Sprintf("%+.1f%%", 100*(speedup-1))
}

// tLabel renders a threshold the way the paper's column headers do:
// ".05", ".10", ".15" (no leading zero).
func tLabel(t float64) string {
	return strings.TrimPrefix(fmt.Sprintf("%.2f", t), "0")
}

// textErrors appends the partial-result error section. Complete results
// contribute nothing, keeping their rendering byte-identical to the
// pre-split output.
func textErrors(b *strings.Builder, errs []results.RunError) {
	if len(errs) == 0 {
		return
	}
	fmt.Fprintf(b, "\nPARTIAL RESULT: %d run(s) did not complete\n", len(errs))
	for _, e := range errs {
		fmt.Fprintf(b, "  %s: %s\n", e.Bench, e.Err)
	}
}

func textTable1(t *results.Table1Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: unique paths, average scope (insts), difficult paths")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "Bench")
	for _, n := range t.PathLengths {
		fmt.Fprintf(w, "\tn=%d:path\tscope", n)
		for _, T := range t.Thresholds {
			fmt.Fprintf(w, "\tT=%s", tLabel(T))
		}
	}
	fmt.Fprintln(w)
	type colSum struct {
		path, scope float64
		difficult   []float64
	}
	sums := make([]colSum, len(t.PathLengths))
	for i := range sums {
		sums[i].difficult = make([]float64, len(t.Thresholds))
	}
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s", r.Bench)
		for i, nr := range r.ByN {
			fmt.Fprintf(w, "\t%d\t%.2f", nr.UniquePaths, nr.AvgScope)
			for ti, d := range nr.Difficult {
				fmt.Fprintf(w, "\t%d", d)
				sums[i].difficult[ti] += float64(d)
			}
			sums[i].path += float64(nr.UniquePaths)
			sums[i].scope += nr.AvgScope
		}
		fmt.Fprintln(w)
	}
	if n := float64(len(t.Rows)); n > 0 {
		fmt.Fprint(w, "Average")
		for i := range t.PathLengths {
			fmt.Fprintf(w, "\t%.0f\t%.2f", sums[i].path/n, sums[i].scope/n)
			for ti := range t.Thresholds {
				fmt.Fprintf(w, "\t%.0f", sums[i].difficult[ti]/n)
			}
		}
		fmt.Fprintln(w)
	}
	flushTable(w)
	textErrors(&b, t.Errors)
	return b.String()
}

func textTable2(t *results.Table2Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 2: misprediction (mis%) and execution (exe%) coverage")
	for ti, T := range t.Thresholds {
		fmt.Fprintf(&b, "\nT = %.2f\n", T)
		w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
		fmt.Fprint(w, "Bench\tBr:mis%\texe%")
		for _, n := range t.PathLengths {
			fmt.Fprintf(w, "\tn=%d:mis%%\texe%%", n)
		}
		fmt.Fprintln(w)
		var bm, be float64
		pm := make([]float64, len(t.PathLengths))
		pe := make([]float64, len(t.PathLengths))
		for _, r := range t.Rows {
			row := r.ByT[ti]
			fmt.Fprintf(w, "%s\t%.1f\t%.1f", r.Bench, row.Branch.MisPct, row.Branch.ExePct)
			bm += row.Branch.MisPct
			be += row.Branch.ExePct
			for ni := range t.PathLengths {
				c := row.ByN[ni]
				fmt.Fprintf(w, "\t%.1f\t%.1f", c.MisPct, c.ExePct)
				pm[ni] += c.MisPct
				pe[ni] += c.ExePct
			}
			fmt.Fprintln(w)
		}
		if n := float64(len(t.Rows)); n > 0 {
			fmt.Fprintf(w, "Average\t%.1f\t%.1f", bm/n, be/n)
			for ni := range t.PathLengths {
				fmt.Fprintf(w, "\t%.1f\t%.1f", pm[ni]/n, pe[ni]/n)
			}
			fmt.Fprintln(w)
		}
		flushTable(w)
	}
	textErrors(&b, t.Errors)
	return b.String()
}

func textFigure6(f *results.Figure6Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6: potential speed-up from perfect difficult-path prediction")
	fmt.Fprintln(&b, "(8K Path Cache, T=.10, training interval 32, 8K MicroRAM)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "Bench\tbase IPC")
	for _, n := range f.PathLengths {
		fmt.Fprintf(w, "\tn=%d", n)
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%s\t%.3f", r.Bench, r.BaselineIPC)
		for _, n := range f.PathLengths {
			fmt.Fprintf(w, "\t%s", pct(r.SpeedupByN[n]))
		}
		fmt.Fprintln(w)
	}
	if len(f.Geomean) > 0 {
		fmt.Fprint(w, "Geomean\t")
		for _, n := range f.PathLengths {
			fmt.Fprintf(w, "\t%s", pct(f.Geomean[n]))
		}
		fmt.Fprintln(w)
	}
	flushTable(w)

	// The chart picks the middle path length (n=10 with the paper's
	// set), matching the pre-split renderer.
	chartN := f.PathLengths[len(f.PathLengths)/2]
	labels := make([]string, len(f.Rows))
	vals := make([]float64, len(f.Rows))
	for i, r := range f.Rows {
		labels[i] = r.Bench
		vals[i] = 100 * (r.SpeedupByN[chartN] - 1)
	}
	fmt.Fprint(&b, "\n", barChart(fmt.Sprintf("potential speed-up, n=%d (%%)", chartN), labels, vals, "%+.1f", 40))
	textErrors(&b, f.Errors)
	return b.String()
}

func textFigure7(f *results.Figure7Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7: realistic speed-up (n=10, T=.10, build latency 100)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Bench\tbase IPC\tno-pruning\tpruning\toverhead-only")
	var np, pr, ov []float64
	for _, r := range f.Runs {
		fmt.Fprintf(w, "%s\t%.3f\t%s\t%s\t%s\n", r.Bench, r.Base.IPC(),
			pct(r.NoPrune.Speedup(r.Base)), pct(r.Prune.Speedup(r.Base)),
			pct(r.Overhead.Speedup(r.Base)))
		np = append(np, r.NoPrune.Speedup(r.Base))
		pr = append(pr, r.Prune.Speedup(r.Base))
		ov = append(ov, r.Overhead.Speedup(r.Base))
	}
	if len(f.Runs) > 0 {
		fmt.Fprintf(w, "Geomean\t\t%s\t%s\t%s\n", pct(results.Geomean(np)), pct(results.Geomean(pr)), pct(results.Geomean(ov)))
	}
	flushTable(w)

	labels := make([]string, len(f.Runs))
	vals := make([]float64, len(f.Runs))
	for i, r := range f.Runs {
		labels[i] = r.Bench
		vals[i] = 100 * (r.Prune.Speedup(r.Base) - 1)
	}
	fmt.Fprint(&b, "\n", barChart("realistic speed-up with pruning (%)", labels, vals, "%+.1f", 40))

	// Section 4.3.2 / 4.1 companion statistics, from the pruning runs.
	var att, drop, spawned, aborted uint64
	var misses, avoided uint64
	for _, r := range f.Runs {
		att += r.Prune.Micro.AttemptedSpawns
		drop += r.Prune.Micro.PreAllocationDrops()
		spawned += r.Prune.Micro.Spawned
		aborted += r.Prune.Micro.AbortedActive
		misses += r.Prune.PathCache.Misses
		avoided += r.Prune.PathCache.AllocsAvoided
	}
	if att > 0 && spawned > 0 {
		fmt.Fprintf(&b, "\nSpawns aborted before microcontext allocation: %.0f%% (paper: 67%%)\n",
			100*float64(drop)/float64(att))
		fmt.Fprintf(&b, "Successful spawns aborted before completion:   %.0f%% (paper: 66%%)\n",
			100*float64(aborted)/float64(spawned))
	}
	if misses > 0 {
		fmt.Fprintf(&b, "Path Cache allocations avoided:                %.0f%% (paper: ~45%%)\n",
			100*float64(avoided)/float64(misses))
	}
	textErrors(&b, f.Errors)
	return b.String()
}

func textFigure8(f *results.Figure8Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: average routine size / longest dependence chain (insts)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Bench\tsize no-prune\tsize prune\tchain no-prune\tchain prune")
	var s0, s1, c0, c1, n float64
	for _, r := range f.Runs {
		if r.NoPrune.Build.Builds == 0 || r.Prune.Build.Builds == 0 {
			fmt.Fprintf(w, "%s\t-\t-\t-\t-\n", r.Bench)
			continue
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\n", r.Bench,
			r.NoPrune.AvgRoutineSize, r.Prune.AvgRoutineSize,
			r.NoPrune.AvgDepChain, r.Prune.AvgDepChain)
		s0 += r.NoPrune.AvgRoutineSize
		s1 += r.Prune.AvgRoutineSize
		c0 += r.NoPrune.AvgDepChain
		c1 += r.Prune.AvgDepChain
		n++
	}
	if n > 0 {
		fmt.Fprintf(w, "Average\t%.1f\t%.1f\t%.1f\t%.1f\n", s0/n, s1/n, c0/n, c1/n)
	}
	flushTable(w)
	textErrors(&b, f.Errors)
	return b.String()
}

func timeliness(r *cpu.Result) (early, late, useless float64, total uint64) {
	total = r.Micro.Early + r.Micro.Late + r.Micro.Useless
	if total == 0 {
		return 0, 0, 0, 0
	}
	early = 100 * float64(r.Micro.Early) / float64(total)
	late = 100 * float64(r.Micro.Late) / float64(total)
	useless = 100 * float64(r.Micro.Useless) / float64(total)
	return early, late, useless, total
}

func textFigure9(f *results.Figure9Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 9: prediction timeliness (% of delivered predictions)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Bench\tnoP early\tlate\tuseless\t(count)\tP early\tlate\tuseless\t(count)")
	for _, r := range f.Runs {
		e0, l0, u0, t0 := timeliness(r.NoPrune)
		e1, l1, u1, t1 := timeliness(r.Prune)
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%d\t%.0f\t%.0f\t%.0f\t%d\n",
			r.Bench, e0, l0, u0, t0, e1, l1, u1, t1)
	}
	flushTable(w)
	textErrors(&b, f.Errors)
	return b.String()
}

func textPerfect(p *results.PerfectResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Section 1: speed-up from perfect branch prediction")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Bench\tbase IPC\tperfect IPC\tspeedup\tbase mispredict %")
	for _, r := range p.Rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.2fx\t%.2f\n",
			r.Bench, r.BaselineIPC, r.PerfectIPC, r.Speedup, 100*r.BaselineMisprRatio)
	}
	if len(p.Rows) > 0 {
		fmt.Fprintf(w, "Geomean\t\t\t%.2fx\t\n", p.GeomeanSpeedup)
	}
	flushTable(w)
	textErrors(&b, p.Errors)
	return b.String()
}

func textProfileGuided(p *results.ProfileGuidedResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Extension: profile-guided vs dynamic difficult-path promotion")
	fmt.Fprintln(&b, "(future work in the paper; n=10, T=.10, top paths by misprediction mass)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Bench\tbase IPC\tdynamic\tprofile-guided\tguided paths")
	var dyn, gui []float64
	for _, r := range p.Rows {
		fmt.Fprintf(w, "%s\t%.3f\t%s\t%s\t%d\n",
			r.Bench, r.BaselineIPC, pct(r.DynamicSpeedup), pct(r.GuidedSpeedup), r.GuidedPaths)
		dyn = append(dyn, r.DynamicSpeedup)
		gui = append(gui, r.GuidedSpeedup)
	}
	if len(p.Rows) > 0 {
		fmt.Fprintf(w, "Geomean\t\t%s\t%s\t\n", pct(results.Geomean(dyn)), pct(results.Geomean(gui)))
	}
	flushTable(w)
	textErrors(&b, p.Errors)
	return b.String()
}

func textShootout(s *results.ShootoutResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Shootout: predictor backends vs microthreads (speedup over hybrid baseline)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "Bench\tbase IPC")
	for _, c := range s.Configs[1:] {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%s\t%.3f", r.Bench, r.Cells[0].IPC)
		for _, c := range r.Cells[1:] {
			fmt.Fprintf(w, "\t%s", pct(c.Speedup))
		}
		fmt.Fprintln(w)
	}
	if len(s.Geomean) > 0 {
		fmt.Fprint(w, "Geomean\t")
		for _, g := range s.Geomean[1:] {
			fmt.Fprintf(w, "\t%s", pct(g))
		}
		fmt.Fprintln(w)
	}
	flushTable(w)

	fmt.Fprintln(&b, "\nMachine-level misprediction rate (%)")
	w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "Bench")
	for _, c := range s.Configs {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%s", r.Bench)
		for _, c := range r.Cells {
			fmt.Fprintf(w, "\t%.2f", c.MispredictPct)
		}
		fmt.Fprintln(w)
	}
	flushTable(w)
	textErrors(&b, s.Errors)
	return b.String()
}

func textSMT(s *results.SMTResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SMT: primary-context interference (fetch policy %s)\n", s.FetchPolicy)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "Mix\tsharing\tmachine IPC\tctx\tIPC\tsolo\tcover%\tsolo%\tdenied%")
	for _, m := range s.Mixes {
		for _, v := range m.Variants {
			for i, c := range v.Contexts {
				mix, sharing, machine := "", "", ""
				if i == 0 {
					mix, sharing = m.Name, v.Sharing
					machine = fmt.Sprintf("%.3f", v.MachineIPC)
				}
				fmt.Fprintf(w, "%s\t%s\t%s\t%d:%s\t%.3f\t%.3f\t%.1f\t%.1f\t%.1f\n",
					mix, sharing, machine, i, c.Bench,
					c.IPC, c.SoloIPC, c.CoveragePct, c.SoloCoveragePct, c.DenialRatePct)
			}
		}
	}
	flushTable(w)
	textErrors(&b, s.Errors)
	return b.String()
}

func textAblations(a *results.AblationResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablations: geomean speed-up over baseline (full mechanism variants)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%s\t%s\n", r.Name, pct(r.Speedup))
	}
	flushTable(w)
	textErrors(&b, a.Errors)
	return b.String()
}
