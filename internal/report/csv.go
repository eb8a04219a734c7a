package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"dpbp/internal/obs"
	"dpbp/internal/results"
)

// CSV writes v as flat comma-separated rows: one header record, one data
// record per benchmark (or per benchmark × sub-dimension where a result
// has one, e.g. path length). Partial results append "ERROR" records —
// ERROR,<bench>,<message> — after the data so a truncated sweep can never
// be mistaken for a complete one.
func CSV(w io.Writer, v any) error {
	cw := csv.NewWriter(w)
	var err error
	switch r := v.(type) {
	case *results.Table1Result:
		err = csvTable1(cw, r)
	case *results.Table2Result:
		err = csvTable2(cw, r)
	case *results.Figure6Result:
		err = csvFigure6(cw, r)
	case *results.Figure7Result:
		err = csvFigure7(cw, r)
	case *results.Figure8Result:
		err = csvFigure8(cw, r)
	case *results.Figure9Result:
		err = csvFigure9(cw, r)
	case *results.PerfectResult:
		err = csvPerfect(cw, r)
	case *results.ProfileGuidedResult:
		err = csvProfileGuided(cw, r)
	case *results.AblationResult:
		err = csvAblations(cw, r)
	case *results.ShootoutResult:
		err = csvShootout(cw, r)
	case *results.SMTResult:
		err = csvSMT(cw, r)
	case *obs.Registry:
		err = csvMetrics(cw, r)
	default:
		return fmt.Errorf("report: no csv renderer for %T", v)
	}
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func itoa(i int) string     { return strconv.Itoa(i) }
func utoa(u uint64) string  { return strconv.FormatUint(u, 10) }
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
func csvErrors(w *csv.Writer, errs []results.RunError) error {
	for _, e := range errs {
		if err := w.Write([]string{"ERROR", e.Bench, e.Err}); err != nil {
			return err
		}
	}
	return nil
}

func csvTable1(w *csv.Writer, t *results.Table1Result) error {
	header := []string{"bench", "n", "unique_paths", "avg_scope"}
	for _, T := range t.Thresholds {
		header = append(header, fmt.Sprintf("difficult_t%g", T))
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		for _, c := range r.ByN {
			rec := []string{r.Bench, itoa(c.N), itoa(c.UniquePaths), ftoa(c.AvgScope)}
			for _, d := range c.Difficult {
				rec = append(rec, itoa(d))
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	return csvErrors(w, t.Errors)
}

func csvTable2(w *csv.Writer, t *results.Table2Result) error {
	if err := w.Write([]string{"bench", "t", "classifier", "n", "mis_pct", "exe_pct"}); err != nil {
		return err
	}
	for _, r := range t.Rows {
		for _, blk := range r.ByT {
			rec := []string{r.Bench, ftoa(blk.T), "branch", "", ftoa(blk.Branch.MisPct), ftoa(blk.Branch.ExePct)}
			if err := w.Write(rec); err != nil {
				return err
			}
			for ni, c := range blk.ByN {
				rec := []string{r.Bench, ftoa(blk.T), "path", itoa(t.PathLengths[ni]), ftoa(c.MisPct), ftoa(c.ExePct)}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	return csvErrors(w, t.Errors)
}

func csvFigure6(w *csv.Writer, f *results.Figure6Result) error {
	if err := w.Write([]string{"bench", "baseline_ipc", "n", "speedup"}); err != nil {
		return err
	}
	for _, r := range f.Rows {
		for _, n := range f.PathLengths {
			rec := []string{r.Bench, ftoa(r.BaselineIPC), itoa(n), ftoa(r.SpeedupByN[n])}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	// Geomean rows, in path-length order.
	ns := make([]int, 0, len(f.Geomean))
	for n := range f.Geomean {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		if err := w.Write([]string{"geomean", "", itoa(n), ftoa(f.Geomean[n])}); err != nil {
			return err
		}
	}
	return csvErrors(w, f.Errors)
}

func csvFigure7(w *csv.Writer, f *results.Figure7Result) error {
	if err := w.Write([]string{"bench", "base_ipc", "no_prune_speedup", "prune_speedup", "overhead_speedup"}); err != nil {
		return err
	}
	for _, r := range f.Runs {
		rec := []string{r.Bench, ftoa(r.Base.IPC()),
			ftoa(r.NoPrune.Speedup(r.Base)), ftoa(r.Prune.Speedup(r.Base)), ftoa(r.Overhead.Speedup(r.Base))}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return csvErrors(w, f.Errors)
}

func csvFigure8(w *csv.Writer, f *results.Figure8Result) error {
	if err := w.Write([]string{"bench", "size_no_prune", "size_prune", "chain_no_prune", "chain_prune"}); err != nil {
		return err
	}
	for _, r := range f.Runs {
		if r.NoPrune.Build.Builds == 0 || r.Prune.Build.Builds == 0 {
			if err := w.Write([]string{r.Bench, "", "", "", ""}); err != nil {
				return err
			}
			continue
		}
		rec := []string{r.Bench,
			ftoa(r.NoPrune.AvgRoutineSize), ftoa(r.Prune.AvgRoutineSize),
			ftoa(r.NoPrune.AvgDepChain), ftoa(r.Prune.AvgDepChain)}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return csvErrors(w, f.Errors)
}

func csvFigure9(w *csv.Writer, f *results.Figure9Result) error {
	if err := w.Write([]string{"bench", "variant", "early_pct", "late_pct", "useless_pct", "count"}); err != nil {
		return err
	}
	for _, r := range f.Runs {
		e0, l0, u0, t0 := timeliness(r.NoPrune)
		e1, l1, u1, t1 := timeliness(r.Prune)
		if err := w.Write([]string{r.Bench, "no_prune", ftoa(e0), ftoa(l0), ftoa(u0), utoa(t0)}); err != nil {
			return err
		}
		if err := w.Write([]string{r.Bench, "prune", ftoa(e1), ftoa(l1), ftoa(u1), utoa(t1)}); err != nil {
			return err
		}
	}
	return csvErrors(w, f.Errors)
}

func csvPerfect(w *csv.Writer, p *results.PerfectResult) error {
	if err := w.Write([]string{"bench", "baseline_ipc", "perfect_ipc", "speedup", "baseline_mispredict_ratio"}); err != nil {
		return err
	}
	for _, r := range p.Rows {
		rec := []string{r.Bench, ftoa(r.BaselineIPC), ftoa(r.PerfectIPC), ftoa(r.Speedup), ftoa(r.BaselineMisprRatio)}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	if len(p.Rows) > 0 {
		if err := w.Write([]string{"geomean", "", "", ftoa(p.GeomeanSpeedup), ""}); err != nil {
			return err
		}
	}
	return csvErrors(w, p.Errors)
}

func csvProfileGuided(w *csv.Writer, p *results.ProfileGuidedResult) error {
	if err := w.Write([]string{"bench", "baseline_ipc", "dynamic_speedup", "guided_speedup", "guided_paths"}); err != nil {
		return err
	}
	for _, r := range p.Rows {
		rec := []string{r.Bench, ftoa(r.BaselineIPC), ftoa(r.DynamicSpeedup), ftoa(r.GuidedSpeedup), itoa(r.GuidedPaths)}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return csvErrors(w, p.Errors)
}

// csvMetrics flattens a metrics registry: counters as metric,value rows,
// histogram buckets as "name[lo,hi)" rows.
func csvMetrics(w *csv.Writer, r *obs.Registry) error {
	if err := w.Write([]string{"metric", "value"}); err != nil {
		return err
	}
	for _, c := range r.Counters() {
		if err := w.Write([]string{c.Name, utoa(c.Value)}); err != nil {
			return err
		}
	}
	for _, h := range r.Histograms() {
		for _, bk := range h.Hist.Buckets() {
			name := fmt.Sprintf("%s[%d,%d)", h.Name, bk.Lo, bk.Hi)
			if err := w.Write([]string{name, utoa(bk.Count)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvShootout(w *csv.Writer, s *results.ShootoutResult) error {
	if err := w.Write([]string{"bench", "config", "ipc", "speedup", "mispredict_pct"}); err != nil {
		return err
	}
	for _, r := range s.Rows {
		for ci, c := range r.Cells {
			rec := []string{r.Bench, s.Configs[ci], ftoa(c.IPC), ftoa(c.Speedup), ftoa(c.MispredictPct)}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	for ci, g := range s.Geomean {
		if err := w.Write([]string{"geomean", s.Configs[ci], "", ftoa(g), ""}); err != nil {
			return err
		}
	}
	return csvErrors(w, s.Errors)
}

func csvSMT(w *csv.Writer, s *results.SMTResult) error {
	header := []string{"mix", "sharing", "fetch_policy", "ctx", "bench",
		"ipc", "solo_ipc", "machine_ipc", "coverage_pct", "solo_coverage_pct",
		"attempted_spawns", "co_runner_denied", "denial_rate_pct"}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, m := range s.Mixes {
		for _, v := range m.Variants {
			for i, c := range v.Contexts {
				rec := []string{m.Name, v.Sharing, s.FetchPolicy, itoa(i), c.Bench,
					ftoa(c.IPC), ftoa(c.SoloIPC), ftoa(v.MachineIPC),
					ftoa(c.CoveragePct), ftoa(c.SoloCoveragePct),
					utoa(c.AttemptedSpawns), utoa(c.CoRunnerDenied), ftoa(c.DenialRatePct)}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	return csvErrors(w, s.Errors)
}

func csvAblations(w *csv.Writer, a *results.AblationResult) error {
	if err := w.Write([]string{"config", "speedup"}); err != nil {
		return err
	}
	for _, r := range a.Rows {
		if err := w.Write([]string{r.Name, ftoa(r.Speedup)}); err != nil {
			return err
		}
	}
	return csvErrors(w, a.Errors)
}
