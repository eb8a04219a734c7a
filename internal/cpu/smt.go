package cpu

import (
	"context"
	"errors"
	"fmt"

	"dpbp/internal/program"
)

// This file is the SMT extension of the timing core: N primary contexts
// — each a full per-thread architectural replica (emulator,
// retirement ring, path tracker, front-end state) — time-share one
// machine's execution resources. The always-shared back end is the
// functional-unit and L1-port calendars, the data-memory hierarchy, and
// the L1 I-cache, which see each context's addresses in its own space
// (Machine.space); the Path Cache, Prediction Cache, MicroRAM, and branch
// predictor are shared or private per SMTConfig. Microcontexts are a
// machine-wide budget all primaries' spawns compete for.
//
// Mechanically an SMT run is K Machines whose shared-component pointers
// are rewired to thread 0's after Reset, interleaved one instruction at
// a time by a fetch arbiter. Each Machine's run loop (stepOne) is
// untouched, so a 1-context SMT run is DeepEqual to the equivalent solo
// run — the regression wall the differential oracle leans on.

// FetchPolicy selects how the SMT fetch arbiter picks the next primary
// context to advance.
type FetchPolicy int

const (
	// FetchRoundRobin statically partitions fetch cycles: with K
	// contexts, thread i fetches only on cycles ≡ i (mod K), and the
	// arbiter always advances the thread whose front-end clock is
	// furthest behind. The zero value, as everywhere in Config.
	FetchRoundRobin FetchPolicy = iota
	// FetchICount approximates Tullsen's ICOUNT policy: the arbiter
	// advances the thread with the fewest cycles of unretired work in
	// flight (retirement front minus fetch clock), giving fast-moving
	// threads priority and keeping stalled threads from hoarding the
	// shared back end. Fetch cycles are not statically partitioned; the
	// per-thread front-end bandwidth idealization is documented in
	// DESIGN.md §16.
	FetchICount
)

// String names the policy (the -smt CLI vocabulary).
func (p FetchPolicy) String() string {
	switch p {
	case FetchRoundRobin:
		return "rr"
	case FetchICount:
		return "icount"
	}
	return "unknown"
}

// ParseFetchPolicy is String's inverse.
func ParseFetchPolicy(s string) (FetchPolicy, error) {
	switch s {
	case "", "rr", "round-robin":
		return FetchRoundRobin, nil
	case "icount":
		return FetchICount, nil
	}
	return 0, fmt.Errorf("cpu: unknown fetch policy %q (want rr or icount)", s)
}

// WorkloadRef names the workload one SMT primary context runs. The cpu
// package never resolves the name — program construction stays in the
// synth/experiment layers — but the reference lives here so SMTConfig,
// JSON output, and the -smt CLI flag share one vocabulary.
type WorkloadRef struct {
	// Bench is a benchmark name (internal/synth's fixed set).
	Bench string
}

// SMTConfig configures multi-primary-context runs. The zero value —
// no contexts, round-robin, everything private — is exactly the
// single-thread machine.
type SMTConfig struct {
	// Contexts lists the primary threads' workloads; empty disables SMT.
	Contexts []WorkloadRef
	// FetchPolicy selects the fetch arbiter.
	FetchPolicy FetchPolicy
	// SharedPathCache shares one Path Cache (difficult-path
	// identification) across contexts; false gives each its own.
	SharedPathCache bool
	// SharedPCache shares one Prediction Cache; entries are context-
	// tagged so streams never cross, but capacity is contended.
	SharedPCache bool
	// SharedMicroRAM shares one MicroRAM: once the builder finishes a
	// routine one context built, it spawns (and is aborted) under any
	// context whose fetch stream hits its spawn PC — the cross-program
	// aliasing the interference experiments study.
	SharedMicroRAM bool
	// SharedPredictor shares the hardware branch predictor (and the H2P
	// spawn-gate filter) across contexts, the classic SMT
	// history-pollution seam.
	SharedPredictor bool
}

// Enabled reports whether the configuration asks for an SMT run.
func (s SMTConfig) Enabled() bool { return len(s.Contexts) > 0 }

// Canonical normalizes the configuration for a run-cache key. Every zero
// field is meaningful (private, round-robin), so only the empty-vs-nil
// slice distinction needs folding.
func (s SMTConfig) Canonical() SMTConfig {
	if len(s.Contexts) == 0 {
		s.Contexts = nil
	}
	return s
}

// smtShared is the cross-context state of one SMT run: the machine-wide
// microcontext budget every primary thread's spawns compete for.
type smtShared struct {
	active int // microcontexts in flight across all primary threads
	limit  int // machine-wide budget (Config.Microcontexts)
}

// SMTResult is the outcome of one SMT run: one full per-context Result
// plus the run-wide facts that have no per-context owner. When a
// structure is shared, every context's Result carries an identical copy
// of its (machine-wide) statistics — the Shared* flags tell consumers
// which counters are per-context and which are combined.
type SMTResult struct {
	FetchPolicy FetchPolicy
	// Cycles is the machine's span: the max retirement front over
	// contexts.
	Cycles uint64
	// Contexts holds one Result per primary, in SMTConfig.Contexts
	// order. Micro (spawn/delivery) counters are always per-context.
	Contexts []*Result

	// Sharing flags, copied from the canonical config.
	SharedPathCache bool
	SharedPCache    bool
	SharedMicroRAM  bool
	SharedPredictor bool

	// PathCacheOccupancy and PathCacheCapacity snapshot the Path Cache
	// at run end (the max over caches when private): the occupancy
	// conservation law requires Occupancy <= Capacity always.
	PathCacheOccupancy int
	PathCacheCapacity  int
}

// IPC returns whole-machine throughput: total retired primary
// instructions over the machine's cycle span.
func (r *SMTResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var insts uint64
	for _, c := range r.Contexts {
		insts += c.Insts
	}
	return float64(insts) / float64(r.Cycles)
}

// SMTMachine runs multi-primary-context workloads. Unlike Machine it is
// not recycled between runs: sharing rewires component pointers across
// the per-context Machines, which would poison Reset's reuse logic, so
// RunContext builds fresh Machines every call.
type SMTMachine struct {
	ms []*Machine
}

// NewSMTMachine returns an SMT runner.
func NewSMTMachine() *SMTMachine { return &SMTMachine{} }

// RunSMT executes progs under cfg's SMT configuration on a fresh runner.
func RunSMT(ctx context.Context, progs []*program.Program, cfg Config) (*SMTResult, error) {
	return NewSMTMachine().RunContext(ctx, progs, cfg)
}

// RunContext executes one SMT run: progs[i] is the program of
// cfg.SMT.Contexts[i] (the caller resolves WorkloadRef names; lengths
// must match). On cancellation the partial statistics accumulated so
// far are returned alongside the context's error.
func (s *SMTMachine) RunContext(ctx context.Context, progs []*program.Program, cfg Config) (*SMTResult, error) {
	cfg = cfg.Canonical()
	k := len(cfg.SMT.Contexts)
	if k == 0 {
		return nil, errors.New("cpu: SMT run with no contexts (SMTConfig is zero)")
	}
	if k > 256 {
		return nil, fmt.Errorf("cpu: %d SMT contexts exceed the 256-context ID space", k)
	}
	if len(progs) != k {
		return nil, fmt.Errorf("cpu: %d programs for %d SMT contexts", len(progs), k)
	}

	// Per-context machines: Reset first (each builds or rewinds a full
	// private component set), then rewire threads 1..k-1 onto thread 0's
	// shared structures. The order matters — Reset must never run on an
	// already-aliased component.
	shared := &smtShared{limit: cfg.Microcontexts}
	s.ms = make([]*Machine, k)
	for i := range s.ms {
		m := NewMachine()
		m.Reset(progs[i], cfg)
		m.ctxID = uint8(i)
		m.smt = shared
		if cfg.SMT.FetchPolicy == FetchRoundRobin && k > 1 {
			m.fcStride = uint64(k)
			m.fcPhase = uint64(i)
		}
		s.ms[i] = m
	}
	lead := s.ms[0]
	for _, m := range s.ms[1:] {
		// Always shared: execution resources and the memory hierarchy.
		m.fus = lead.fus
		m.ports = lead.ports
		m.msys = lead.msys
		m.l1i = lead.l1i
		if cfg.SMT.SharedPathCache {
			m.pathCache = lead.pathCache
		}
		if cfg.SMT.SharedPCache {
			m.predCache = lead.predCache
		}
		if cfg.SMT.SharedMicroRAM {
			m.uram = lead.uram
		}
		if cfg.SMT.SharedPredictor {
			m.pred = lead.pred
			m.h2pGate = lead.h2pGate
		}
	}
	states := make([]runState, k)
	for i, m := range s.ms {
		m.beginRun(&states[i])
	}

	// The fetch arbiter: one instruction per grant. Round-robin advances
	// the thread whose front-end clock is furthest behind (the slot
	// lattice then makes fetch cycles strictly alternate); icount
	// advances the thread with the least unretired work in flight. Ties
	// go to the lower context index; finished threads (halted, emulator
	// exhausted, or at budget) drop out.
	var steps uint64
	for {
		best := -1
		switch cfg.SMT.FetchPolicy {
		case FetchICount:
			var bestGap uint64
			for i, m := range s.ms {
				if states[i].halted || m.res.Insts >= cfg.MaxInsts {
					continue
				}
				var gap uint64
				if m.lastRet > m.fc {
					gap = m.lastRet - m.fc
				}
				if best < 0 || gap < bestGap {
					best, bestGap = i, gap
				}
			}
		default:
			for i, m := range s.ms {
				if states[i].halted || m.res.Insts >= cfg.MaxInsts {
					continue
				}
				if best < 0 || m.fc < s.ms[best].fc {
					best = i
				}
			}
		}
		if best < 0 {
			break
		}
		if steps%ctxCheckInterval == 0 && ctx.Err() != nil {
			break
		}
		steps++
		if !s.ms[best].stepOne(&states[best]) {
			states[best].halted = true
		}
	}

	res := &SMTResult{
		FetchPolicy:     cfg.SMT.FetchPolicy,
		Contexts:        make([]*Result, k),
		SharedPathCache: cfg.SMT.SharedPathCache,
		SharedPCache:    cfg.SMT.SharedPCache,
		SharedMicroRAM:  cfg.SMT.SharedMicroRAM,
		SharedPredictor: cfg.SMT.SharedPredictor,
	}
	for i, m := range s.ms {
		m.finishRun()
		out := m.res
		res.Contexts[i] = &out
		if out.Cycles > res.Cycles {
			res.Cycles = out.Cycles
		}
		if occ := m.pathCache.Occupancy(); occ > res.PathCacheOccupancy {
			res.PathCacheOccupancy = occ
		}
		if cap := m.pathCache.Capacity(); cap > res.PathCacheCapacity {
			res.PathCacheCapacity = cap
		}
	}
	return res, ctx.Err()
}

// Context returns primary context i's Machine after a run, for
// architectural-state inspection (ArchRegs, ArchMem) by the
// differential oracle. Valid until the next RunContext; callers must
// not Reset or re-run it.
func (s *SMTMachine) Context(i int) *Machine { return s.ms[i] }
