package cpu

import (
	"fmt"

	"dpbp/internal/bpred"
	"dpbp/internal/pathcache"
	"dpbp/internal/pcache"
	"dpbp/internal/uthread"
)

// MicroStats counts microthread activity for one run.
type MicroStats struct {
	// Spawning. The paper's "aborted before allocating a microcontext"
	// bucket is PreAllocationDrops(): the Path_History screen and
	// microcontext exhaustion are distinct causes and counted apart.
	AttemptedSpawns     uint64
	PrefixMismatchDrops uint64 // Path_History screen rejected the instance
	NoContextDrops      uint64 // all of this thread's microcontexts were busy
	// CoRunnerDenied counts spawns this thread had a free microcontext
	// for but the machine-wide budget refused because SMT co-runners'
	// microthreads held the remaining slots. Always zero outside SMT
	// runs: solo, the thread's own contexts are the whole budget, so
	// every exhaustion lands in NoContextDrops exactly as before.
	CoRunnerDenied uint64
	Spawned        uint64
	AbortedActive  uint64 // aborted after allocation, before completion
	Completed      uint64

	// Prediction delivery (Figure 9 categories; consumed predictions
	// only — predictions for branches never reached are excluded, as in
	// the paper).
	Early   uint64
	Late    uint64
	Useless uint64

	// Prediction quality.
	UsedPredictions  uint64 // early predictions that steered fetch
	CorrectUsed      uint64
	WrongUsed        uint64
	UsedFixed        uint64 // used, correct, and hardware was wrong
	UsedBroke        uint64 // used, wrong, and hardware was right
	EarlyRecoveries  uint64 // late + correct while hardware was wrong
	BogusRecoveries  uint64 // late + wrong while hardware was right
	MemDepViolations uint64
	Rebuilds         uint64

	// Microthread instruction traffic.
	MicroInsts uint64

	// Throttle feedback (future-work extension; see Config.Throttle).
	ThrottledWindows  uint64
	SkippedByThrottle uint64

	// WrongPathAttempts counts spawn attempts made by wrong-path fetch
	// (only with Config.WrongPathSpawns).
	WrongPathAttempts uint64

	// H2PGateSkips counts Path Cache promotions rejected by the H2P
	// spawn gate (only with Config.H2PSpawnGate).
	H2PGateSkips uint64
}

// PreAllocationDrops returns the total spawn attempts aborted before a
// microcontext was allocated, for any cause. (Older versions lumped the
// first two causes into NoContextDrops; CoRunnerDenied joins the total
// because an SMT-denied spawn likewise never held a microcontext.)
func (m *MicroStats) PreAllocationDrops() uint64 {
	return m.PrefixMismatchDrops + m.NoContextDrops + m.CoRunnerDenied
}

// AbortPreFraction returns the fraction of attempted spawns aborted before
// microcontext allocation (the paper reports 67%).
func (m *MicroStats) AbortPreFraction() float64 {
	if m.AttemptedSpawns == 0 {
		return 0
	}
	return float64(m.PreAllocationDrops()) / float64(m.AttemptedSpawns)
}

// AbortActiveFraction returns the fraction of successful spawns aborted
// before completion (the paper reports 66%).
func (m *MicroStats) AbortActiveFraction() float64 {
	if m.Spawned == 0 {
		return 0
	}
	return float64(m.AbortedActive) / float64(m.Spawned)
}

// Result is the outcome of one timing run.
type Result struct {
	Benchmark string
	Mode      Mode
	Pruning   bool

	Cycles uint64
	Insts  uint64

	// Branch behaviour. Mispredicts counts machine-level mispredictions
	// (after microthread overrides); HWMispredicts counts what the
	// hardware predictor alone would have suffered.
	Branches      uint64
	HWMispredicts uint64
	Mispredicts   uint64

	Micro     MicroStats
	PredStats bpred.Stats
	Backend   bpred.BackendStats
	PathCache pathcache.Stats
	PCache    pcache.Stats
	Build     uthread.BuildStats

	// Routine statistics over every routine the builder constructed,
	// rebuilds and routines the MicroRAM refused included (Figure 8).
	AvgRoutineSize float64
	AvgDepChain    float64

	// Memory behaviour.
	L1MissRate float64
	L2MissRate float64
}

// IPC returns retired primary-thread instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// MispredictRate returns the machine-level terminating-branch
// misprediction rate.
func (r *Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// Speedup returns this run's IPC relative to a baseline run.
func (r *Result) Speedup(base *Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return r.IPC() / base.IPC()
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s[%s pruning=%v]: %d insts, %d cycles, IPC %.3f, mispr %.2f%% (hw %.2f%%)",
		r.Benchmark, r.Mode, r.Pruning, r.Insts, r.Cycles, r.IPC(),
		100*r.MispredictRate(), 100*float64(r.HWMispredicts)/float64(max64(r.Branches, 1)))
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
