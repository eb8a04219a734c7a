// Package dpbp is a library-quality reproduction of "Difficult-Path
// Branch Prediction Using Subordinate Microthreads" (Chappell, Tseng,
// Yoaz, Patt — ISCA 2002).
//
// It bundles an execution-driven timing simulator of the paper's Table 3
// machine, the complete difficult-path microthreading mechanism (Path
// Cache, Microthread Builder with pruning, MicroRAM, Prediction Cache,
// SSMT spawning and aborts), twenty synthetic benchmarks standing in for
// SPECint95/SPECint2000, and an experiment harness that regenerates every
// table and figure in the paper's evaluation.
//
// Quick start:
//
//	w := dpbp.MustWorkload("gcc")
//	base := dpbp.Run(w, dpbp.BaselineConfig())
//	mech := dpbp.Run(w, dpbp.DefaultConfig())   // full mechanism, defaults
//	fmt.Printf("speedup %.2f%%\n", 100*(mech.Speedup(base)-1))
//
// Experiments (Tables 1-2, Figures 6-9) are exposed through the Table1,
// Table2, Figure6 ... Figure9 functions and the dpbp command.
package dpbp

import (
	"context"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/pathprof"
	"dpbp/internal/program"
	"dpbp/internal/synth"
	"dpbp/internal/uthread"
)

// Routine is a constructed microthread routine; MachineConfig.OnBuild
// observes every routine the builder produces.
type Routine = uthread.Routine

// Workload is a runnable benchmark program.
type Workload struct {
	// Name is the benchmark name.
	Name string
	// Program is the generated executable image.
	Program *program.Program
	// Profile is the generator profile the workload came from.
	Profile synth.Profile
}

// Benchmarks returns the names of the twenty built-in benchmarks, in the
// paper's order (SPECint95 then SPECint2000).
func Benchmarks() []string { return synth.Names() }

// NewWorkload generates the named built-in benchmark.
func NewWorkload(name string) (*Workload, error) {
	p, err := synth.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: name, Program: synth.Generate(p), Profile: p}, nil
}

// MustWorkload is NewWorkload, panicking on unknown names.
func MustWorkload(name string) *Workload {
	w, err := NewWorkload(name)
	if err != nil {
		panic(err)
	}
	return w
}

// CustomProfile is a synthetic-benchmark generator profile; see
// DefaultProfile for a starting point and the field documentation on
// synth.Profile for meanings.
type CustomProfile = synth.Profile

// KernelMix builds the kernel-mix weights of a CustomProfile: weights for
// the data-dependent scan, path-correlated, loop-nest, switch,
// pointer-chase, call-tree, and interpreter-dispatch kernel families, in
// that order.
func KernelMix(scan, pathMix, loopNest, switches, chase, callTree, interp int) [synth.NumKernelKinds]int {
	return synth.Mix(scan, pathMix, loopNest, switches, chase, callTree, interp)
}

// DefaultProfile returns a template custom profile: a medium-size, hard
// workload. Adjust and pass to CustomWorkload.
func DefaultProfile(name string, seed int64) CustomProfile {
	return CustomProfile{
		Name:       name,
		Seed:       seed,
		Kernels:    12,
		Iterations: 1 << 20,
		Bias:       0.55,
		Footprint:  16 << 10,
		Mix:        KernelMix(3, 2, 2, 1, 1, 1, 1),
		LoopLen:    12,
		Pad:        2,
	}
}

// CustomWorkload generates a workload from a custom profile.
func CustomWorkload(p CustomProfile) *Workload {
	return &Workload{Name: p.Name, Program: synth.Generate(p), Profile: p}
}

// MachineConfig configures a timing run. The zero value is the Table 3
// baseline machine (ModeBaseline) with default sizes; use DefaultConfig
// for the paper's full mechanism or BaselineConfig for an explicit
// baseline.
type MachineConfig = cpu.Config

// Mode selects what the machine does about difficult paths.
type Mode = cpu.Mode

// Machine modes.
const (
	// ModeBaseline is the Table 3 machine with no microthreading.
	ModeBaseline = cpu.ModeBaseline
	// ModePerfectAll predicts every branch perfectly.
	ModePerfectAll = cpu.ModePerfectAll
	// ModePerfectPromoted perfectly predicts promoted difficult paths.
	ModePerfectPromoted = cpu.ModePerfectPromoted
	// ModeMicrothread runs the full microthread mechanism.
	ModeMicrothread = cpu.ModeMicrothread
)

// Result is the outcome of a timing run; see cpu.Result for the full
// statistics surface (IPC, mispredictions, spawn/abort counts, timeliness,
// builder and Prediction Cache statistics).
type Result = cpu.Result

// SMTConfig joins multiple primary contexts into one machine
// (MachineConfig.SMT). The zero value is the single-thread machine —
// bit-identical to a config without the field. Contexts names the
// co-scheduled workloads, FetchPolicy picks the arbiter, and the Shared*
// flags select which structures the contexts contend over.
type SMTConfig = cpu.SMTConfig

// WorkloadRef names one SMT primary context's benchmark.
type WorkloadRef = cpu.WorkloadRef

// FetchPolicy selects the SMT fetch arbiter.
type FetchPolicy = cpu.FetchPolicy

// SMT fetch arbitration policies.
const (
	// FetchRoundRobin grants fetch slots to contexts in rotation.
	FetchRoundRobin = cpu.FetchRoundRobin
	// FetchICount favors the context with the fewest in-flight fetches.
	FetchICount = cpu.FetchICount
)

// SMTResult is the outcome of an SMT timing run: one full Result per
// context plus the machine span and shared-structure snapshot.
type SMTResult = cpu.SMTResult

// RunSMT co-schedules the workloads as SMT primary contexts on one
// configured machine. cfg.SMT.Contexts must name one entry per workload
// (RunSMT fills them from the workload names when empty).
func RunSMT(ctx context.Context, ws []*Workload, cfg MachineConfig) (*SMTResult, error) {
	if len(cfg.SMT.Contexts) == 0 {
		for _, w := range ws {
			cfg.SMT.Contexts = append(cfg.SMT.Contexts, WorkloadRef{Bench: w.Name})
		}
	}
	progs := make([]*program.Program, len(ws))
	for i, w := range ws {
		progs[i] = w.Program
	}
	return cpu.RunSMT(ctx, progs, cfg)
}

// Predictor-backend names for MachineConfig.BPred, which names the
// direction-predictor backend of a timing run. Empty means the paper's
// gshare/PAs hybrid; every backend runs at its default size.
const (
	// BackendHybrid is the paper's gshare/PAs hybrid (the default).
	BackendHybrid = bpred.BackendHybrid
	// BackendTAGE is a TAGE-style tagged geometric-history predictor.
	BackendTAGE = bpred.BackendTAGE
	// BackendH2P layers a hard-to-predict side predictor over the hybrid.
	BackendH2P = bpred.BackendH2P
)

// PredictorBackends returns the backend names, sorted.
func PredictorBackends() []string { return bpred.Backends() }

// DefaultConfig returns the paper's Figure 7 "pruning" machine: the full
// mechanism with n=10, T=.10, and pruning enabled.
func DefaultConfig() MachineConfig { return cpu.DefaultConfig() }

// BaselineConfig returns the Table 3 machine with no microthreading.
func BaselineConfig() MachineConfig {
	cfg := cpu.DefaultConfig()
	cfg.Mode = cpu.ModeBaseline
	return cfg
}

// Run executes a workload on the configured machine.
func Run(w *Workload, cfg MachineConfig) *Result {
	return cpu.Run(w.Program, cfg)
}

// PathProfile is the functional path-classification profile behind
// Tables 1 and 2.
type PathProfile = pathprof.Profile

// PathProfileConfig configures Profile.
type PathProfileConfig = pathprof.Config

// Profile runs the functional path profiler (no timing) over a workload.
// It panics on a config whose Validate method returns an error: a path
// length below 1, or a MaxInsts above pathprof.MaxProfileInsts
// (4294967295), the most its 32-bit path counters count exactly.
func Profile(w *Workload, cfg PathProfileConfig) *PathProfile {
	return pathprof.Run(w.Program, cfg)
}
