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
	var recs [][]string
	switch r := v.(type) {
	case *results.Table1Result:
		recs = csvTable1(r)
	case *results.Table2Result:
		recs = csvTable2(r)
	case *results.Figure6Result:
		recs = csvFigure6(r)
	case *results.Figure7Result:
		recs = csvFigure7(r)
	case *results.Figure8Result:
		recs = csvFigure8(r)
	case *results.Figure9Result:
		recs = csvFigure9(r)
	case *results.PerfectResult:
		recs = csvPerfect(r)
	case *results.ProfileGuidedResult:
		recs = csvProfileGuided(r)
	case *results.AblationResult:
		recs = csvAblations(r)
	case *results.ShootoutResult:
		recs = csvShootout(r)
	case *results.SMTResult:
		recs = csvSMT(r)
	case *obs.Registry:
		recs = csvMetrics(r)
	default:
		return fmt.Errorf("report: no csv renderer for %T", v)
	}
	return csv.NewWriter(w).WriteAll(recs)
}

func itoa(i int) string     { return strconv.Itoa(i) }
func utoa(u uint64) string  { return strconv.FormatUint(u, 10) }
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// csvErrors appends one ERROR record per failed benchmark to recs.
func csvErrors(recs [][]string, errs []results.RunError) [][]string {
	for _, e := range errs {
		recs = append(recs, []string{"ERROR", e.Bench, e.Err})
	}
	return recs
}

func csvTable1(t *results.Table1Result) [][]string {
	header := []string{"bench", "n", "unique_paths", "avg_scope"}
	for _, T := range t.Thresholds {
		header = append(header, fmt.Sprintf("difficult_t%g", T))
	}
	recs := [][]string{header}
	for _, r := range t.Rows {
		for _, c := range r.ByN {
			rec := []string{r.Bench, itoa(c.N), itoa(c.UniquePaths), ftoa(c.AvgScope)}
			for _, d := range c.Difficult {
				rec = append(rec, itoa(d))
			}
			recs = append(recs, rec)
		}
	}
	return csvErrors(recs, t.Errors)
}

func csvTable2(t *results.Table2Result) [][]string {
	recs := [][]string{{"bench", "t", "classifier", "n", "mis_pct", "exe_pct"}}
	for _, r := range t.Rows {
		for _, blk := range r.ByT {
			recs = append(recs, []string{r.Bench, ftoa(blk.T), "branch", "", ftoa(blk.Branch.MisPct), ftoa(blk.Branch.ExePct)})
			for ni, c := range blk.ByN {
				recs = append(recs, []string{r.Bench, ftoa(blk.T), "path", itoa(t.PathLengths[ni]), ftoa(c.MisPct), ftoa(c.ExePct)})
			}
		}
	}
	return csvErrors(recs, t.Errors)
}

func csvFigure6(f *results.Figure6Result) [][]string {
	recs := [][]string{{"bench", "baseline_ipc", "n", "speedup"}}
	for _, r := range f.Rows {
		for _, n := range f.PathLengths {
			recs = append(recs, []string{r.Bench, ftoa(r.BaselineIPC), itoa(n), ftoa(r.SpeedupByN[n])})
		}
	}
	// Geomean rows, in path-length order.
	ns := make([]int, 0, len(f.Geomean))
	for n := range f.Geomean {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		recs = append(recs, []string{"geomean", "", itoa(n), ftoa(f.Geomean[n])})
	}
	return csvErrors(recs, f.Errors)
}

func csvFigure7(f *results.Figure7Result) [][]string {
	recs := [][]string{{"bench", "base_ipc", "no_prune_speedup", "prune_speedup", "overhead_speedup"}}
	for _, r := range f.Runs {
		recs = append(recs, []string{r.Bench, ftoa(r.Base.IPC()),
			ftoa(r.NoPrune.Speedup(r.Base)), ftoa(r.Prune.Speedup(r.Base)), ftoa(r.Overhead.Speedup(r.Base))})
	}
	return csvErrors(recs, f.Errors)
}

func csvFigure8(f *results.Figure8Result) [][]string {
	recs := [][]string{{"bench", "size_no_prune", "size_prune", "chain_no_prune", "chain_prune"}}
	for _, r := range f.Runs {
		if r.NoPrune.Build.Builds == 0 || r.Prune.Build.Builds == 0 {
			recs = append(recs, []string{r.Bench, "", "", "", ""})
			continue
		}
		recs = append(recs, []string{r.Bench,
			ftoa(r.NoPrune.AvgRoutineSize), ftoa(r.Prune.AvgRoutineSize),
			ftoa(r.NoPrune.AvgDepChain), ftoa(r.Prune.AvgDepChain)})
	}
	return csvErrors(recs, f.Errors)
}

func csvFigure9(f *results.Figure9Result) [][]string {
	recs := [][]string{{"bench", "variant", "early_pct", "late_pct", "useless_pct", "count"}}
	for _, r := range f.Runs {
		e0, l0, u0, t0 := timeliness(r.NoPrune)
		e1, l1, u1, t1 := timeliness(r.Prune)
		recs = append(recs,
			[]string{r.Bench, "no_prune", ftoa(e0), ftoa(l0), ftoa(u0), utoa(t0)},
			[]string{r.Bench, "prune", ftoa(e1), ftoa(l1), ftoa(u1), utoa(t1)})
	}
	return csvErrors(recs, f.Errors)
}

func csvPerfect(p *results.PerfectResult) [][]string {
	recs := [][]string{{"bench", "baseline_ipc", "perfect_ipc", "speedup", "baseline_mispredict_ratio"}}
	for _, r := range p.Rows {
		recs = append(recs, []string{r.Bench, ftoa(r.BaselineIPC), ftoa(r.PerfectIPC), ftoa(r.Speedup), ftoa(r.BaselineMisprRatio)})
	}
	if len(p.Rows) > 0 {
		recs = append(recs, []string{"geomean", "", "", ftoa(p.GeomeanSpeedup), ""})
	}
	return csvErrors(recs, p.Errors)
}

func csvProfileGuided(p *results.ProfileGuidedResult) [][]string {
	recs := [][]string{{"bench", "baseline_ipc", "dynamic_speedup", "guided_speedup", "guided_paths"}}
	for _, r := range p.Rows {
		recs = append(recs, []string{r.Bench, ftoa(r.BaselineIPC), ftoa(r.DynamicSpeedup), ftoa(r.GuidedSpeedup), itoa(r.GuidedPaths)})
	}
	return csvErrors(recs, p.Errors)
}

// csvMetrics flattens a metrics registry: counters as metric,value rows,
// histogram buckets as "name[lo,hi)" rows.
func csvMetrics(r *obs.Registry) [][]string {
	recs := [][]string{{"metric", "value"}}
	for _, c := range r.Counters() {
		recs = append(recs, []string{c.Name, utoa(c.Value)})
	}
	for _, h := range r.Histograms() {
		for _, bk := range h.Hist.Buckets() {
			recs = append(recs, []string{fmt.Sprintf("%s[%d,%d)", h.Name, bk.Lo, bk.Hi), utoa(bk.Count)})
		}
	}
	return recs
}

func csvShootout(s *results.ShootoutResult) [][]string {
	recs := [][]string{{"bench", "config", "ipc", "speedup", "mispredict_pct"}}
	for _, r := range s.Rows {
		for ci, c := range r.Cells {
			recs = append(recs, []string{r.Bench, s.Configs[ci], ftoa(c.IPC), ftoa(c.Speedup), ftoa(c.MispredictPct)})
		}
	}
	for ci, g := range s.Geomean {
		recs = append(recs, []string{"geomean", s.Configs[ci], "", ftoa(g), ""})
	}
	return csvErrors(recs, s.Errors)
}

func csvSMT(s *results.SMTResult) [][]string {
	recs := [][]string{{"mix", "sharing", "fetch_policy", "ctx", "bench",
		"ipc", "solo_ipc", "machine_ipc", "coverage_pct", "solo_coverage_pct",
		"attempted_spawns", "co_runner_denied", "denial_rate_pct"}}
	for _, m := range s.Mixes {
		for _, v := range m.Variants {
			for i, c := range v.Contexts {
				recs = append(recs, []string{m.Name, v.Sharing, s.FetchPolicy, itoa(i), c.Bench,
					ftoa(c.IPC), ftoa(c.SoloIPC), ftoa(v.MachineIPC),
					ftoa(c.CoveragePct), ftoa(c.SoloCoveragePct),
					utoa(c.AttemptedSpawns), utoa(c.CoRunnerDenied), ftoa(c.DenialRatePct)})
			}
		}
	}
	return csvErrors(recs, s.Errors)
}

func csvAblations(a *results.AblationResult) [][]string {
	recs := [][]string{{"config", "speedup"}}
	for _, r := range a.Rows {
		recs = append(recs, []string{r.Name, ftoa(r.Speedup)})
	}
	return csvErrors(recs, a.Errors)
}
