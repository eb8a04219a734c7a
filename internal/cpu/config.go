// Package cpu is the SSMT timing core: an execution-driven cycle-level
// model of the Table 3 machine — 16-wide front end (3 branch predictions
// and 3 I-cache accesses per cycle), 512-entry out-of-order window, 16
// all-purpose functional units with full forwarding, the Table 3 memory
// hierarchy, and a 20-cycle minimum branch misprediction penalty — plus
// the paper's difficult-path microthread machinery: Path Cache promotion,
// the Microthread Builder (100-cycle build latency), microcontext spawning
// at fetch, Path_History aborts, and Prediction Cache delivery with early
// recovery on late predictions.
//
// The model is dependence-graph based: each dynamic instruction's fetch,
// rename, issue, completion, and retirement cycles are computed in fetch
// order against shared resource calendars (functional units, L1 ports),
// which is where primary/microthread contention arises. Fetch follows the
// correct path; misprediction penalties appear as redirect gaps at branch
// resolution (or earlier, when a late microthread prediction initiates an
// early recovery). Microthread instructions are scheduled through the same
// calendars and touch the same data caches, so overhead and prefetch
// side effects are both modelled. Two idealisations are documented in
// DESIGN.md: wrong-path instructions are not fetched (so wrong-path spawn
// attempts do not occur), and microthread instructions do not occupy
// out-of-order window slots.
package cpu

import (
	"dpbp/internal/bpred"
	"dpbp/internal/emu"
	"dpbp/internal/obs"
	"dpbp/internal/pathcache"
	"dpbp/internal/uthread"
)

// Mode selects the machine configuration under test.
type Mode int

const (
	// ModeBaseline runs the Table 3 machine with no microthreading.
	ModeBaseline Mode = iota
	// ModePerfectAll predicts every branch perfectly (the Section 1
	// potential bound).
	ModePerfectAll
	// ModePerfectPromoted perfectly predicts the terminating branches of
	// currently promoted difficult paths, with no microthread overhead
	// (Figure 6's potential).
	ModePerfectPromoted
	// ModeMicrothread runs the full mechanism (Figure 7).
	ModeMicrothread
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModePerfectAll:
		return "perfect"
	case ModePerfectPromoted:
		return "potential"
	case ModeMicrothread:
		return "microthread"
	}
	return "unknown"
}

// Config parameterises a timing run. Zero values take Table 3 defaults
// via DefaultConfig.
type Config struct {
	Mode Mode
	// UsePredictions, in ModeMicrothread, delivers microthread
	// predictions to the front end. False gives Figure 7's
	// "overhead-only" configuration: microthreads run and compete for
	// resources (and prefetch), but their predictions are dropped.
	UsePredictions bool
	// Pruning enables the Vp_Inst/Ap_Inst optimisation.
	Pruning bool
	// AbortEnabled enables the Path_History abort mechanism.
	AbortEnabled bool

	// N is the path length (the paper evaluates 4, 10, 16; Figure 7
	// uses 10).
	N int
	// PathCache configures difficult-path identification.
	PathCache pathcache.Config
	// MicroRAMEntries bounds concurrently promoted paths (8K).
	MicroRAMEntries int
	// PCacheEntries sizes the Prediction Cache (128).
	PCacheEntries int
	// Microcontexts bounds concurrently active microthreads.
	Microcontexts int
	// BuildLatency is the Microthread Builder's fixed latency (100).
	BuildLatency int
	// SpawnOverhead is the MicroRAM read + injection delay between the
	// spawn fetch and the first microthread instruction being ready.
	SpawnOverhead int

	// RebuildOnViolation controls whether a memory-dependence violation
	// marks the routine for reconstruction (Section 4.2.4). On by
	// default; disable for ablation.
	RebuildOnViolation bool

	// Throttle enables the spawn-throttling feedback loop the paper
	// lists as future work ("we are experimenting with feedback
	// mechanisms to throttle microthread usage"): the machine tracks,
	// over windows of retired branches, how many used microthread
	// predictions fixed a hardware misprediction versus how much
	// microthread instruction traffic was injected; when the fix rate
	// per unit of traffic falls below ThrottleMinYield the machine stops
	// spawning for the next window, re-probing periodically.
	Throttle bool
	// ThrottleWindow is the feedback window in retired branches.
	ThrottleWindow int
	// ThrottleMinYield is the minimum (fixes / spawns) ratio per window
	// that keeps spawning enabled.
	ThrottleMinYield float64

	// WrongPathSpawns relaxes the model's wrong-path idealisation: when
	// a branch mispredicts, the instructions the front end would have
	// fetched down the wrong path (followed statically through direct
	// control flow) also trigger spawn attempts. Wrong-path spawns
	// consume microcontexts and execution resources until the
	// Path_History monitor aborts them against the post-recovery
	// correct-path stream, mirroring the useless-spawn overhead the
	// paper's 67%/66% abort statistics describe. Off by default so the
	// headline experiments match the documented model.
	WrongPathSpawns bool

	// PrePromoted lists paths (by Path_Id) to promote unconditionally:
	// the profile-guided variant the paper sketches as future work for
	// better tracking of vast path populations. Routines are still
	// built at run time from the PRB; PrePromoted only bypasses the
	// Path Cache's difficulty training for these paths.
	PrePromoted []uint64

	// BPred names the conditional-direction backend (bpred.Backends;
	// empty canonicalizes to bpred.BackendHybrid, the gshare/PAs
	// hybrid). bpred sizes every backend: the hybrid's tables and the
	// target structures (BTB/RAS/target cache) have the Table 3 sizes of
	// bpred.DefaultConfig, tage and h2p their packages' DefaultConfig.
	BPred string
	// H2PSpawnGate, in ModeMicrothread or ModePerfectPromoted, gates
	// path promotion on an H2P filter (h2p.DefaultConfig's): a path
	// whose terminating branch the filter does not currently classify
	// hard-to-predict is rejected at promotion time. It focuses
	// microthread capacity on the branches concentrating mispredictions
	// (the Bullseye-style classifier driving spawning instead of a side
	// predictor).
	H2PSpawnGate bool

	// Front end and core widths (Table 3).
	FetchWidth       int
	BranchesPerCycle int
	WindowSize       int
	RetireWidth      int

	// L1I geometry (64KB, 4-way in Table 3).
	L1IWords int
	L1IWays  int

	// MaxInsts bounds the run (primary-thread instructions; per primary
	// context in SMT runs).
	MaxInsts uint64

	// SMT configures multi-primary-context runs (see SMTConfig and
	// SMTMachine). The zero value is exactly today's single-thread
	// machine: RunContext ignores it, and an SMT run with one context and
	// all structures private is DeepEqual to the equivalent solo run.
	SMT SMTConfig

	// OnBuild, if set, is invoked with every routine the Microthread
	// Builder constructs (including rebuilds). It is an observation
	// hook for tooling; mutating the routine is not allowed.
	OnBuild func(*uthread.Routine)

	// OnRetire, if set, is invoked with every primary-thread
	// instruction's architectural record, after the timing model has
	// processed it, and with the index of the primary context that
	// retired it (always 0 in single-thread runs). It is the observation
	// point for differential verification (internal/oracle): the record
	// describes exactly what the machine's internal emulator retired, so
	// a lockstep reference emulator per context can diff the streams.
	// The record is reused between calls and must not be retained;
	// mutating it is not allowed.
	OnRetire func(ctx int, rec *emu.Record)

	// Obs, if set, receives structured lifecycle events and occupancy
	// samples from the run (see internal/obs). A nil tracer disables
	// tracing with no hot-path cost beyond a pointer compare; the
	// simulation never reads the tracer, so enabling it cannot change
	// results.
	Obs *obs.Tracer
}

// The Table 3 parameters no experiment varies are constants, not Config
// fields. The memory hierarchy (mem.DefaultConfig), the value and
// address predictors (vpred.DefaultConfig), the hybrid's tables and the
// target structures (bpred.DefaultConfig) and the 64-entry MCB
// (uthread.DefaultBuildConfig) are their packages' defaults; the rest
// are these.
const (
	// prbEntries sizes the Post-Retirement Buffer.
	prbEntries = 512
	// injectPerCycle bounds how many microthread instructions a
	// microcontext queue can feed into the machine per cycle (Section
	// 4.3.1's per-cycle packet formation). It spreads a routine's
	// resource usage over time, which is what lets aborts reclaim the
	// unissued remainder.
	injectPerCycle = 2
	// frontLatency is the fetch->rename pipeline depth.
	frontLatency = 8
	// funcUnits is the number of all-purpose functional units.
	funcUnits = 16
	// l1Ports is the number of L1 data-cache ports.
	l1Ports = 4
	// redirectPenalty is the pipeline refill gap after a redirect.
	redirectPenalty = 10
	// icacheMissPenalty is the fetch stall of a discontinuous I-cache
	// miss.
	icacheMissPenalty = 6
	// icacheLinesPerCycle bounds the I-cache lines fetched per cycle.
	icacheLinesPerCycle = 3
)

// DefaultConfig returns the Table 3 machine running the full microthread
// mechanism with the paper's Figure 7 parameters (n=10, T=.10, 8K Path
// Cache, training interval 32, 8K MicroRAM, 128-entry Prediction Cache,
// 100-cycle build latency).
func DefaultConfig() Config {
	return Config{
		Mode:               ModeMicrothread,
		UsePredictions:     true,
		Pruning:            true,
		AbortEnabled:       true,
		RebuildOnViolation: true,
		ThrottleWindow:     4096,
		ThrottleMinYield:   0.002,
		N:                  10,
		PathCache:          pathcache.DefaultConfig(),
		MicroRAMEntries:    8 << 10,
		PCacheEntries:      128,
		Microcontexts:      16,
		BuildLatency:       100,
		SpawnOverhead:      4,
		FetchWidth:         16,
		BranchesPerCycle:   3,
		WindowSize:         512,
		RetireWidth:        16,
		L1IWords:           8 << 10,
		L1IWays:            4,
		MaxInsts:           1_000_000,
	}
}

// Canonical returns the configuration with every zero field replaced by
// its Table 3 default, preserving Mode and the boolean switches as given
// — exactly the configuration a run with c actually uses (Machine.Reset
// runs it first). Two Configs that canonicalize equal produce
// bit-identical runs, which is what makes Canonical the right input for
// a run-cache key. An empty PrePromoted folds to nil, because the key
// prints a nil slice differently from an empty one and both mean no
// pre-promoted paths.
func (c Config) Canonical() Config {
	d := DefaultConfig()
	if c.N == 0 {
		c.N = d.N
	}
	// The Path Cache config fills field by field, never whole-struct on
	// a single sentinel field: a partial pathcache.Config keeps its set
	// fields and defaults the rest.
	if c.PathCache.Entries == 0 {
		c.PathCache.Entries = d.PathCache.Entries
	}
	if c.PathCache.Ways == 0 {
		c.PathCache.Ways = d.PathCache.Ways
	}
	if c.PathCache.TrainInterval == 0 {
		c.PathCache.TrainInterval = d.PathCache.TrainInterval
	}
	if c.PathCache.Threshold == 0 {
		c.PathCache.Threshold = d.PathCache.Threshold
	}
	if c.MicroRAMEntries == 0 {
		c.MicroRAMEntries = d.MicroRAMEntries
	}
	if c.PCacheEntries == 0 {
		c.PCacheEntries = d.PCacheEntries
	}
	if c.Microcontexts == 0 {
		c.Microcontexts = d.Microcontexts
	}
	if c.BuildLatency == 0 {
		c.BuildLatency = d.BuildLatency
	}
	if c.SpawnOverhead == 0 {
		c.SpawnOverhead = d.SpawnOverhead
	}
	if c.BPred == "" {
		c.BPred = bpred.BackendHybrid
	}
	if c.FetchWidth == 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.BranchesPerCycle == 0 {
		c.BranchesPerCycle = d.BranchesPerCycle
	}
	if c.WindowSize == 0 {
		c.WindowSize = d.WindowSize
	}
	if c.RetireWidth == 0 {
		c.RetireWidth = d.RetireWidth
	}
	if c.L1IWords == 0 {
		c.L1IWords = d.L1IWords
	}
	if c.L1IWays == 0 {
		c.L1IWays = d.L1IWays
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = d.MaxInsts
	}
	if c.ThrottleWindow == 0 {
		c.ThrottleWindow = d.ThrottleWindow
	}
	if c.ThrottleMinYield == 0 {
		c.ThrottleMinYield = d.ThrottleMinYield
	}
	if len(c.PrePromoted) == 0 {
		c.PrePromoted = nil
	}
	c.SMT = c.SMT.Canonical()
	return c
}
