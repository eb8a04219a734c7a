package dpbp

import (
	"context"
	"io"

	"dpbp/internal/exp"
	"dpbp/internal/obs"
	"dpbp/internal/report"
	"dpbp/internal/results"
	"dpbp/internal/runcache"
)

// ExperimentOptions selects benchmarks and budgets for the paper's
// experiments. The zero value runs all twenty benchmarks with the default
// instruction budgets and GOMAXPROCS parallelism.
type ExperimentOptions = exp.Options

// RunCache memoizes timing runs, profiling runs, and generated benchmark
// programs, keyed by benchmark name and canonical configuration, with
// single-flight semantics for concurrent requests. Assign one (via
// NewRunCache) to ExperimentOptions.Cache and share it across experiment
// calls: because the simulator is bit-deterministic, cached results are
// identical to fresh ones, and each unique run is computed exactly once.
// Cached results are shared — treat them as immutable.
type RunCache = runcache.Cache

// RunCacheStats is a snapshot of a RunCache's traffic counters.
type RunCacheStats = runcache.Stats

// NewRunCache returns an empty run cache.
func NewRunCache() *RunCache { return runcache.New() }

// Tracer records one timing run's microthread lifecycle events and
// occupancy samples; assign one to MachineConfig.Obs. A nil tracer
// disables tracing at zero cost, and tracing never perturbs results.
type Tracer = obs.Tracer

// NewTracer returns an enabled tracer with default limits.
func NewTracer() *Tracer { return obs.NewTracer() }

// TraceCollector aggregates the tracers of a multi-run sweep; assign one
// to ExperimentOptions.Trace to trace every timing run of an experiment,
// then export with WriteChromeTrace.
type TraceCollector = obs.Collector

// NewTraceCollector returns an empty trace collector.
func NewTraceCollector() *TraceCollector { return obs.NewCollector() }

// MetricsRegistry is an ordered, JSON-serializable counter/histogram
// view unifying the simulator's statistics structs; see
// MetricsRegistry.AddStruct and Tracer.AddTo.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WriteChromeTrace writes every run collected by c as one Chrome
// trace-event JSON document (loadable in Perfetto or chrome://tracing),
// with event timestamps in fetch cycles.
func WriteChromeTrace(w io.Writer, c *TraceCollector) error { return c.WriteChromeTrace(w) }

// RunError records one benchmark run that failed to complete (panic or
// cancellation, including an expired context deadline). Results
// carrying a non-empty Errors list are partial: the surviving rows are
// complete and correct.
type RunError = results.RunError

// Experiment results, one plain data struct per paper table/figure
// (JSON-taggable; see Render for output formats).
type (
	// Table1Result holds unique-path counts, average scopes, and
	// difficult-path counts (paper Table 1).
	Table1Result = exp.Table1Result
	// Table2Result holds misprediction/execution coverages for
	// difficult branches vs difficult paths (paper Table 2).
	Table2Result = exp.Table2Result
	// Figure6Result holds potential speed-ups from perfect
	// difficult-path prediction (paper Figure 6).
	Figure6Result = exp.Figure6Result
	// Figure7Result holds realistic speed-ups with/without pruning and
	// overhead-only (paper Figure 7).
	Figure7Result = exp.Figure7Result
	// Figure8Result holds average routine sizes and dependence chains
	// (paper Figure 8).
	Figure8Result = exp.Figure8Result
	// Figure9Result holds prediction-timeliness breakdowns (paper
	// Figure 9).
	Figure9Result = exp.Figure9Result
	// PerfectResult holds the Section 1 perfect-prediction bound.
	PerfectResult = exp.PerfectResult
	// ProfileGuidedResult holds the profile-guided-promotion extension
	// experiment (the paper's future work).
	ProfileGuidedResult = exp.ProfileGuidedResult
	// Figure7Runs bundles the shared runs behind Figures 7-9.
	Figure7Runs = exp.Figure7Runs
)

// Output formats accepted by Render.
const (
	FormatText = report.FormatText
	FormatJSON = report.FormatJSON
	FormatCSV  = report.FormatCSV
)

// Render writes an experiment result to w in the given format (""
// means text). Text output is the paper-shaped table; JSON and CSV are
// machine-readable.
func Render(w io.Writer, format string, result any) error {
	return report.Render(w, format, result)
}

// Text renders an experiment result as its paper-shaped text table. It
// errors only on a value that is not an experiment result type.
func Text(result any) (string, error) { return report.TextString(result) }

// Table1 reproduces paper Table 1.
func Table1(ctx context.Context, o ExperimentOptions) (*Table1Result, error) {
	return exp.Table1(ctx, o)
}

// Table2 reproduces paper Table 2.
func Table2(ctx context.Context, o ExperimentOptions) (*Table2Result, error) {
	return exp.Table2(ctx, o)
}

// Figure6 reproduces paper Figure 6.
func Figure6(ctx context.Context, o ExperimentOptions) (*Figure6Result, error) {
	return exp.Figure6(ctx, o)
}

// Figure7 reproduces paper Figure 7.
func Figure7(ctx context.Context, o ExperimentOptions) (*Figure7Result, error) {
	return exp.Figure7(ctx, o)
}

// Figure8 reproduces paper Figure 8.
func Figure8(ctx context.Context, o ExperimentOptions) (*Figure8Result, error) {
	return exp.Figure8(ctx, o)
}

// Figure9 reproduces paper Figure 9.
func Figure9(ctx context.Context, o ExperimentOptions) (*Figure9Result, error) {
	return exp.Figure9(ctx, o)
}

// Perfect reproduces the Section 1 perfect-prediction bound.
func Perfect(ctx context.Context, o ExperimentOptions) (*PerfectResult, error) {
	return exp.Perfect(ctx, o)
}

// ProfileGuided runs the profile-guided-promotion extension experiment.
func ProfileGuided(ctx context.Context, o ExperimentOptions) (*ProfileGuidedResult, error) {
	return exp.ProfileGuided(ctx, o)
}

// RunFigure7Set performs the four timing runs behind Figures 7-9 once, so
// the three figures can be rendered from shared runs, each carrying the
// run set's errors:
//
//	runs, runErrs, _ := dpbp.RunFigure7Set(ctx, opts)
//	fmt.Print(dpbp.Text(&dpbp.Figure7Result{Runs: runs, Errors: runErrs}))
//	fmt.Print(dpbp.Text(&dpbp.Figure8Result{Runs: runs, Errors: runErrs}))
//	fmt.Print(dpbp.Text(&dpbp.Figure9Result{Runs: runs, Errors: runErrs}))
func RunFigure7Set(ctx context.Context, o ExperimentOptions) ([]Figure7Runs, []RunError, error) {
	return exp.RunFigure7Set(ctx, o)
}

// Figure8FromRuns builds Figure 8 from an existing run set, with no
// errors; a partial run set's errors go in Figure8Result.Errors.
func Figure8FromRuns(runs []Figure7Runs) *Figure8Result { return exp.Figure8FromRuns(runs) }

// Figure9FromRuns builds Figure 9 from an existing run set, with no
// errors; a partial run set's errors go in Figure9Result.Errors.
func Figure9FromRuns(runs []Figure7Runs) *Figure9Result { return exp.Figure9FromRuns(runs) }

// AblationResult holds the design-choice ablation study.
type AblationResult = exp.AblationResult

// Ablations runs the design-choice ablation study from DESIGN.md §5.
func Ablations(ctx context.Context, o ExperimentOptions) (*AblationResult, error) {
	return exp.Ablations(ctx, o)
}

// ShootoutResult holds the predictor-backend arena: per benchmark, IPC,
// speedup over the hybrid baseline, and misprediction rate for every
// contending configuration.
type ShootoutResult = exp.ShootoutResult

// Shootout pits the predictor backends (hybrid, TAGE, H2P side
// predictor) against the microthread machinery, including an H2P-gated
// microthread variant.
func Shootout(ctx context.Context, o ExperimentOptions) (*ShootoutResult, error) {
	return exp.Shootout(ctx, o)
}

// SMTExperimentResult holds the SMT interference study: benchmark mixes
// co-scheduled as primary contexts, per-context IPC and difficult-path
// coverage vs solo, and contended-spawn denial rates, under private and
// shared structure variants.
type SMTExperimentResult = exp.SMTResult

// SMTStudy runs the SMT interference study. ExperimentOptions.SMT, when
// it carries contexts, overrides the canned mix list, fetch policy, and
// shared-variant flags; ParseSMTSpec builds one from the CLI's -smt
// vocabulary.
func SMTStudy(ctx context.Context, o ExperimentOptions) (*SMTExperimentResult, error) {
	return exp.SMT(ctx, o)
}

// ParseSMTSpec parses the -smt spec vocabulary
// ("bench+bench[:policy][:flags]") into the SMTConfig that
// ExperimentOptions.SMT and MachineConfig.SMT accept.
func ParseSMTSpec(s string) (SMTConfig, error) { return exp.ParseSMTSpec(s) }
