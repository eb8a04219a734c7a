// Package results is the typed data model for the experiment harness:
// one plain, JSON-taggable struct per paper table/figure, plus the
// per-benchmark error records a partially failed or cancelled sweep
// leaves behind.
//
// The package holds data only. Computation lives in internal/exp (which
// fills these structs), presentation in internal/report (which renders
// them as text, JSON, or CSV). Keeping the model free of rendering and
// scheduling concerns is what lets new output formats and new sweep
// drivers appear without touching the experiments themselves.
package results

import "dpbp/internal/cpu"

// Section is one named experiment result in output order: the unit the
// renderers (internal/report) and the sweep driver (cmd/dpbp) exchange.
// Key is the stable section name ("table1", "figure7", "metrics", ...);
// Val is the typed result it labels.
type Section struct {
	Key string
	Val any
}

// RunError records one benchmark run that failed to produce a row:
// a panic converted to an error by the scheduler, a cancelled or
// timed-out context, or any other per-run failure. Results carrying a
// non-empty error list are partial: the surviving rows are complete and
// correct, and every missing benchmark is accounted for here.
type RunError struct {
	// Bench names the benchmark (for ablations, "config/bench").
	Bench string `json:"bench"`
	// Err is the failure rendered as text.
	Err string `json:"error"`
}

// Table1Result reproduces Table 1: unique paths, average scope, and
// difficult-path counts per benchmark for each path length and
// threshold.
type Table1Result struct {
	// PathLengths are the n values, in column order.
	PathLengths []int `json:"path_lengths"`
	// Thresholds are the difficulty thresholds T, in column order.
	Thresholds []float64   `json:"thresholds"`
	Rows       []Table1Row `json:"rows"`
	Errors     []RunError  `json:"errors,omitempty"`
}

// Table1Row is one benchmark's line.
type Table1Row struct {
	Bench string `json:"bench"`
	// ByN is parallel to PathLengths.
	ByN []Table1Cell `json:"by_n"`
}

// Table1Cell is one benchmark's aggregates for a single path length.
type Table1Cell struct {
	N           int     `json:"n"`
	UniquePaths int     `json:"unique_paths"`
	AvgScope    float64 `json:"avg_scope"`
	// Difficult counts difficult paths per threshold, parallel to
	// Table1Result.Thresholds.
	Difficult []int `json:"difficult"`
}

// Coverage is a (misprediction %, execution %) pair for one classifier.
type Coverage struct {
	MisPct float64 `json:"mis_pct"`
	ExePct float64 `json:"exe_pct"`
}

// Table2Result reproduces Table 2: misprediction and execution coverage
// for difficult branches vs difficult paths.
type Table2Result struct {
	PathLengths []int       `json:"path_lengths"`
	Thresholds  []float64   `json:"thresholds"`
	Rows        []Table2Row `json:"rows"`
	Errors      []RunError  `json:"errors,omitempty"`
}

// Table2Row is one benchmark's line.
type Table2Row struct {
	Bench string `json:"bench"`
	// ByT is parallel to Table2Result.Thresholds.
	ByT []Table2Block `json:"by_t"`
}

// Table2Block is one benchmark's coverage at one threshold.
type Table2Block struct {
	T      float64  `json:"t"`
	Branch Coverage `json:"branch"`
	// ByN is parallel to Table2Result.PathLengths.
	ByN []Coverage `json:"by_n"`
}

// Figure6Result reproduces Figure 6: potential IPC speed-up from
// perfectly predicting the terminating branches of promoted difficult
// paths.
type Figure6Result struct {
	PathLengths []int        `json:"path_lengths"`
	Rows        []Figure6Row `json:"rows"`
	// Geomean holds the geometric-mean speedup per path length, over
	// the benchmarks that completed.
	Geomean map[int]float64 `json:"geomean"`
	Errors  []RunError      `json:"errors,omitempty"`
}

// Figure6Row is one benchmark's bars.
type Figure6Row struct {
	Bench       string  `json:"bench"`
	BaselineIPC float64 `json:"baseline_ipc"`
	// SpeedupByN maps path length to potential speedup (IPC ratio).
	SpeedupByN map[int]float64 `json:"speedup_by_n"`
}

// Figure7Runs bundles the four timing runs behind Figures 7, 8, and 9
// for one benchmark: baseline, microthreads without pruning, with
// pruning, and overhead-only (predictions dropped, pruning off).
type Figure7Runs struct {
	Bench    string      `json:"bench"`
	Base     *cpu.Result `json:"base"`
	NoPrune  *cpu.Result `json:"no_prune"`
	Prune    *cpu.Result `json:"prune"`
	Overhead *cpu.Result `json:"overhead"`
}

// Figure7Result reproduces Figure 7: realistic speed-up with and without
// pruning, and the overhead-only configuration.
type Figure7Result struct {
	Runs   []Figure7Runs `json:"runs"`
	Errors []RunError    `json:"errors,omitempty"`
}

// Figure8Result reproduces Figure 8: average routine size and average
// longest dependence chain, with and without pruning.
type Figure8Result struct {
	Runs   []Figure7Runs `json:"runs"`
	Errors []RunError    `json:"errors,omitempty"`
}

// Figure9Result reproduces Figure 9: prediction timeliness (early, late,
// useless) without and with pruning.
type Figure9Result struct {
	Runs   []Figure7Runs `json:"runs"`
	Errors []RunError    `json:"errors,omitempty"`
}

// PerfectResult reproduces the Section 1 claim: the IPC available from
// perfect prediction of all branches over the aggressive baseline.
type PerfectResult struct {
	Rows []PerfectRow `json:"rows"`
	// GeomeanSpeedup across completed benchmarks (the paper reports
	// ~2x).
	GeomeanSpeedup float64    `json:"geomean_speedup"`
	Errors         []RunError `json:"errors,omitempty"`
}

// PerfectRow is one benchmark's bound.
type PerfectRow struct {
	Bench              string  `json:"bench"`
	BaselineIPC        float64 `json:"baseline_ipc"`
	PerfectIPC         float64 `json:"perfect_ipc"`
	Speedup            float64 `json:"speedup"`
	BaselineMisprRatio float64 `json:"baseline_mispredict_ratio"`
}

// ProfileGuidedResult is the extension experiment beyond the paper's
// figures: profile-guided vs dynamic difficult-path promotion.
type ProfileGuidedResult struct {
	Rows   []ProfileGuidedRow `json:"rows"`
	Errors []RunError         `json:"errors,omitempty"`
}

// ProfileGuidedRow is one benchmark's comparison.
type ProfileGuidedRow struct {
	Bench          string  `json:"bench"`
	BaselineIPC    float64 `json:"baseline_ipc"`
	DynamicSpeedup float64 `json:"dynamic_speedup"` // paper's mechanism (Path Cache training)
	GuidedSpeedup  float64 `json:"guided_speedup"`  // profile-guided promotions
	GuidedPaths    int     `json:"guided_paths"`    // promotions fed in
}

// ShootoutResult is the predictor-backend arena: per benchmark, the
// same machine run under each contending configuration (hybrid, TAGE,
// and H2P-side baselines; microthreads over hybrid and TAGE; the
// H2P-gated microthread variant), reporting IPC, speedup over the
// first (reference) configuration, and machine-level misprediction
// rate.
type ShootoutResult struct {
	// Configs names the contenders, in column order. Configs[0] is the
	// reference every speedup is relative to.
	Configs []string      `json:"configs"`
	Rows    []ShootoutRow `json:"rows"`
	// Geomean holds the per-config geometric-mean speedup over the
	// reference, parallel to Configs, across benchmarks where both the
	// config and the reference completed.
	Geomean []float64  `json:"geomean"`
	Errors  []RunError `json:"errors,omitempty"`
}

// ShootoutRow is one benchmark's line; Cells is parallel to
// ShootoutResult.Configs. A cell with IPC 0 means that config's run
// failed for this benchmark (accounted for in Errors).
type ShootoutRow struct {
	Bench string         `json:"bench"`
	Cells []ShootoutCell `json:"cells"`
}

// ShootoutCell is one (benchmark, config) outcome.
type ShootoutCell struct {
	IPC float64 `json:"ipc"`
	// Speedup is IPC relative to the reference config's IPC for the
	// same benchmark (0 when the reference failed).
	Speedup float64 `json:"speedup"`
	// MispredictPct is the machine-level terminating-branch
	// misprediction rate, in percent.
	MispredictPct float64 `json:"mispredict_pct"`
}

// SMTResult is the SMT interference study: pairs of benchmarks
// co-scheduled as primary contexts on one machine, each mix run under a
// private-everything configuration and a shared-Path-Cache one. Per
// context it reports throughput against the solo run of the same
// workload, difficult-path coverage degradation (the fraction of
// hardware mispredicts the microthread mechanism fixed), and the
// spawn-denial rate against the machine-wide microcontext budget.
type SMTResult struct {
	// FetchPolicy names the fetch arbiter every run used ("rr" or
	// "icount").
	FetchPolicy string     `json:"fetch_policy"`
	Mixes       []SMTMix   `json:"mixes"`
	Errors      []RunError `json:"errors,omitempty"`
}

// SMTMix is one co-scheduled workload pair (or tuple) across the
// sharing variants.
type SMTMix struct {
	// Name joins the benchmark names with "+" ("gcc+ijpeg").
	Name     string       `json:"name"`
	Variants []SMTVariant `json:"variants"`
}

// SMTVariant is one sharing configuration of one mix.
type SMTVariant struct {
	// Sharing names the variant: "private", or "shared-" plus the
	// structures shared ("shared-pathcache").
	Sharing string `json:"sharing"`
	// MachineIPC is whole-machine throughput: total retired primary
	// instructions over the machine's cycle span.
	MachineIPC float64 `json:"machine_ipc"`
	// Cycles is the machine's span (max context retirement front).
	Cycles   uint64          `json:"cycles"`
	Contexts []SMTContextRow `json:"contexts"`
}

// SMTContextRow is one primary context's outcome within a variant.
type SMTContextRow struct {
	Bench string `json:"bench"`
	// IPC is this context's throughput over its own cycle span; SoloIPC
	// is the same workload run alone on the same machine configuration.
	IPC     float64 `json:"ipc"`
	SoloIPC float64 `json:"solo_ipc"`
	// CoveragePct is difficult-path coverage: the percentage of hardware
	// mispredicts the microthread mechanism fixed (used-fixed plus early
	// recoveries). SoloCoveragePct is the solo run's value; the gap is
	// the interference cost co-runners impose on the mechanism.
	CoveragePct     float64 `json:"coverage_pct"`
	SoloCoveragePct float64 `json:"solo_coverage_pct"`
	// AttemptedSpawns and CoRunnerDenied expose the contended-budget
	// traffic; DenialRatePct is their ratio in percent.
	AttemptedSpawns uint64  `json:"attempted_spawns"`
	CoRunnerDenied  uint64  `json:"co_runner_denied"`
	DenialRatePct   float64 `json:"denial_rate_pct"`
}

// AblationResult quantifies the design choices DESIGN.md calls out, each
// as a geomean speed-up over the shared baseline across the selected
// benchmarks.
type AblationResult struct {
	Rows   []AblationRow `json:"rows"`
	Errors []RunError    `json:"errors,omitempty"`
}

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Name    string  `json:"name"`
	Speedup float64 `json:"speedup"` // geomean over baseline
}
