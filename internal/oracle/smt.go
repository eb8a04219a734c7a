// SMT differential verification: the multi-primary-context analogue of
// Verify. Each primary context gets its own lockstep reference emulator
// fed from the timing core's OnRetire hook, so co-runners may change
// each other's *timing* arbitrarily but never each other's architecture:
// every context must retire exactly the stream its solo reference
// produces, end with its reference's register file and memory image, and
// the per-context/machine-wide statistics must satisfy the SMT
// conservation laws (CheckSMTStats) — including the ones that only exist
// under sharing, like Path Cache occupancy never exceeding capacity and
// the machine-wide microcontext budget bounding total in-flight spawns.
package oracle

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"dpbp/internal/cpu"
	"dpbp/internal/emu"
	"dpbp/internal/obs"
	"dpbp/internal/pathcache"
	"dpbp/internal/pcache"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

// SMTFault injects a stream corruption into one primary context: the
// record with sequence number Seq retired by context Ctx has its Taken
// bit flipped before comparison. Harness self-test only.
type SMTFault struct {
	Ctx int
	Seq uint64
}

// SMTOptions parameterises VerifySMT.
type SMTOptions struct {
	// MaxInsts bounds each context's run (default 24_000).
	MaxInsts uint64
	// Trace attaches one obs tracer to the whole machine and reconciles
	// its per-kind counts against the per-context statistics
	// (CheckSMTTrace).
	Trace bool
	// Fault optionally corrupts one context's stream (harness self-test).
	Fault *SMTFault
}

// VerifySMT runs progs as cfg.SMT's primary contexts and returns the
// first divergence found, or nil. cfg.SMT must be enabled and
// len(progs) must match its context count. A 1-context run is
// additionally checked bit-identical to the plain solo run of the same
// workload — the bridge law the whole SMT wall rests on.
func VerifySMT(progs []*program.Program, cfg cpu.Config, opts SMTOptions) error {
	if opts.MaxInsts == 0 {
		opts.MaxInsts = 24_000
	}
	cfg.MaxInsts = opts.MaxInsts
	k := len(cfg.SMT.Contexts)
	name := "smt-" + cfg.SMT.FetchPolicy.String()

	refs := make([]*emu.Machine, k)
	refRecs := make([]emu.Record, k)
	for i := range refs {
		if i < len(progs) {
			refs[i] = emu.New(progs[i])
		}
	}
	var div *Divergence
	cfg.OnRetire = func(ctxID int, rec *emu.Record) {
		if div != nil {
			return
		}
		got := *rec
		if f := opts.Fault; f != nil && f.Ctx == ctxID && f.Seq == got.Seq {
			got.Taken = !got.Taken
		}
		ref := refs[ctxID]
		if !ref.Step(&refRecs[ctxID]) {
			div = &Divergence{
				Program: progs[ctxID].Name, Config: smtCtxName(name, ctxID),
				Kind: "stream", Seq: got.Seq,
				Detail: "context retired an instruction after its reference emulator halted",
			}
			return
		}
		if got != refRecs[ctxID] {
			div = &Divergence{
				Program: progs[ctxID].Name, Config: smtCtxName(name, ctxID),
				Kind: "stream", Seq: got.Seq,
				Detail: diffRecords(&got, &refRecs[ctxID]),
			}
		}
	}

	var tr *obs.Tracer
	if opts.Trace {
		tr = obs.NewTracer()
		tr.SetLimit(1) // counters only
		cfg.Obs = tr
	}

	s := cpu.NewSMTMachine()
	res, err := s.RunContext(context.Background(), progs, cfg)
	if err != nil {
		return err
	}
	if div != nil {
		return div
	}

	// Final architectural state, per context: co-runners share timing
	// resources, never architecture.
	for i, ref := range refs {
		m := s.Context(i)
		regs := m.ArchRegs()
		if regs != ref.Regs {
			for r := range regs {
				if regs[r] != ref.Regs[r] {
					return &Divergence{
						Program: progs[i].Name, Config: smtCtxName(name, i),
						Kind: "regs", Seq: res.Contexts[i].Insts,
						Detail: fmt.Sprintf("final r%d = %d, reference %d", r, regs[r], ref.Regs[r]),
					}
				}
			}
		}
		if d := diffMem(m.ArchMem(nil), ref.Mem.Snapshot(nil)); d != "" {
			return &Divergence{
				Program: progs[i].Name, Config: smtCtxName(name, i),
				Kind: "mem", Seq: res.Contexts[i].Insts, Detail: d,
			}
		}
	}

	canon := cfg.Canonical()
	canon.MaxInsts = cfg.MaxInsts
	if err := CheckSMTStats(res, canon); err != nil {
		return &Divergence{
			Program: progs[0].Name, Config: name, Kind: "stats",
			Detail: err.Error(),
		}
	}
	if tr != nil {
		if err := CheckSMTTrace(tr, res); err != nil {
			return &Divergence{
				Program: progs[0].Name, Config: name, Kind: "trace",
				Detail: err.Error(),
			}
		}
	}

	// The bridge law: SMT with every other context empty IS the solo
	// machine. A 1-context run must be bit-identical to cpu.Run of the
	// same program under the SMT-stripped configuration.
	if k == 1 {
		solo := cfg
		solo.SMT = cpu.SMTConfig{}
		solo.OnRetire = nil
		solo.Obs = nil
		want := cpu.Run(progs[0], solo)
		if !reflect.DeepEqual(want, res.Contexts[0]) {
			return &Divergence{
				Program: progs[0].Name, Config: name, Kind: "cross",
				Detail: fmt.Sprintf("1-context SMT diverged from solo:\nsolo: %+v\nsmt:  %+v",
					want, res.Contexts[0]),
			}
		}
	}
	return nil
}

func smtCtxName(name string, ctx int) string {
	return fmt.Sprintf("%s/ctx%d", name, ctx)
}

// CheckSMTStats verifies the conservation laws of one SMT run. The laws
// come in three kinds: per-context laws that hold regardless of sharing
// (the spawn and delivery algebra relate counters one machine owns),
// sharing-aware laws whose scope flips between one context and the sum
// over contexts (a shared structure's counters are machine-wide, and
// every context carries an identical combined copy), and machine-wide
// laws with no solo analogue (total in-flight microthreads bounded by
// the shared budget; Path Cache occupancy bounded by capacity). cfg must
// be the canonical configuration the run used.
func CheckSMTStats(res *cpu.SMTResult, cfg cpu.Config) error {
	var bad []string
	chk := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	smt := cfg.SMT
	k := len(res.Contexts)
	chk(k == len(smt.Contexts), "%d context results for %d configured contexts", k, len(smt.Contexts))
	chk(res.SharedPathCache == smt.SharedPathCache && res.SharedPCache == smt.SharedPCache &&
		res.SharedMicroRAM == smt.SharedMicroRAM && res.SharedPredictor == smt.SharedPredictor,
		"sharing flags in result do not match the configuration")

	var sumBranches, sumInflight, sumDeliveries, maxCycles uint64
	for i, c := range res.Contexts {
		ms := &c.Micro
		pfx := fmt.Sprintf("ctx %d: ", i)

		// Per-context stream totals.
		chk(c.Branches <= c.Insts, pfx+"branches %d > insts %d", c.Branches, c.Insts)
		chk(c.HWMispredicts <= c.Branches, pfx+"hw mispredicts %d > branches %d", c.HWMispredicts, c.Branches)
		sumBranches += c.Branches
		if c.Cycles > maxCycles {
			maxCycles = c.Cycles
		}

		// Spawn algebra with the contended-budget term (trySpawns): the
		// Micro block is per-context even when everything else is shared.
		chk(ms.AttemptedSpawns == ms.PrefixMismatchDrops+ms.NoContextDrops+ms.CoRunnerDenied+ms.Spawned,
			pfx+"attempts %d != prefix %d + no-context %d + co-runner %d + spawns %d",
			ms.AttemptedSpawns, ms.PrefixMismatchDrops, ms.NoContextDrops, ms.CoRunnerDenied, ms.Spawned)
		if k == 1 {
			// With no co-runners the shared budget equals the private
			// context array, so a free own slot implies a free budget slot.
			chk(ms.CoRunnerDenied == 0, pfx+"co-runner denials %d with no co-runners", ms.CoRunnerDenied)
		}
		chk(ms.Completed+ms.AbortedActive <= ms.Spawned,
			pfx+"completions %d + aborts %d > spawns %d", ms.Completed, ms.AbortedActive, ms.Spawned)
		if ms.Completed+ms.AbortedActive <= ms.Spawned {
			sumInflight += ms.Spawned - ms.Completed - ms.AbortedActive
		}

		// Delivery classification internal to the Micro block.
		chk(ms.Early == ms.UsedPredictions, pfx+"early %d != used %d", ms.Early, ms.UsedPredictions)
		chk(ms.UsedPredictions == ms.CorrectUsed+ms.WrongUsed,
			pfx+"used %d != correct %d + wrong %d", ms.UsedPredictions, ms.CorrectUsed, ms.WrongUsed)
		chk(ms.UsedFixed <= ms.CorrectUsed, pfx+"fixed %d > correct used %d", ms.UsedFixed, ms.CorrectUsed)
		chk(ms.UsedBroke <= ms.WrongUsed, pfx+"broke %d > wrong used %d", ms.UsedBroke, ms.WrongUsed)
		chk(ms.EarlyRecoveries+ms.BogusRecoveries <= ms.Late,
			pfx+"recoveries %d+%d > late %d", ms.EarlyRecoveries, ms.BogusRecoveries, ms.Late)
		sumDeliveries += ms.Early + ms.Late + ms.Useless

		// Private structures obey the solo laws against this context's
		// own stream; shared structures are checked once, below, against
		// the summed stream.
		if !smt.SharedPCache {
			chk(ms.Early+ms.Late+ms.Useless == c.PCache.Hits,
				pfx+"deliveries %d != private pcache hits %d", ms.Early+ms.Late+ms.Useless, c.PCache.Hits)
			checkPCacheAlgebra(chk, pfx, &c.PCache, c.Branches, cfg)
		}
		if !smt.SharedPathCache {
			checkPathCacheAlgebra(chk, pfx, &c.PathCache, c.Branches)
		}

		// Backend laws hold per context in every sharing mode: private
		// gives per-context counters on both sides; shared gives each
		// context the same machine-wide copy of both sides.
		checkBackendStats(chk, c, cfg)

		// Mode purity, per context.
		if cfg.Mode == cpu.ModeBaseline || cfg.Mode == cpu.ModePerfectAll || cfg.Mode == cpu.ModePerfectPromoted {
			chk(c.Micro == (cpu.MicroStats{}), pfx+"micro stats nonzero in mode %v", cfg.Mode)
			chk(c.PCache == (pcache.Stats{}), pfx+"pcache stats nonzero in mode %v", cfg.Mode)
		}
	}

	// Machine-wide budget: microcontexts are one contended pool, so the
	// total in flight at run end can never exceed it (activate/deactivate
	// track the shared counter).
	chk(sumInflight <= uint64(cfg.Microcontexts),
		"%d microthreads in flight across contexts > machine budget %d", sumInflight, cfg.Microcontexts)

	// Machine span is the max context span.
	chk(res.Cycles == maxCycles, "machine cycles %d != max context span %d", res.Cycles, maxCycles)

	// Shared structures: every context carries an identical machine-wide
	// copy, and that copy obeys the solo laws against the summed stream.
	if smt.SharedPCache && k > 0 {
		pc := res.Contexts[0].PCache
		for i, c := range res.Contexts[1:] {
			chk(c.PCache == pc, "ctx %d: shared pcache stats differ from ctx 0", i+1)
		}
		chk(sumDeliveries == pc.Hits,
			"summed deliveries %d != shared pcache hits %d", sumDeliveries, pc.Hits)
		checkPCacheAlgebra(chk, "shared: ", &pc, sumBranches, cfg)
	}
	if smt.SharedPathCache && k > 0 {
		ph := res.Contexts[0].PathCache
		for i, c := range res.Contexts[1:] {
			chk(c.PathCache == ph, "ctx %d: shared path-cache stats differ from ctx 0", i+1)
		}
		checkPathCacheAlgebra(chk, "shared: ", &ph, sumBranches)
	}

	// Occupancy: valid Path Cache entries can never exceed capacity —
	// shared or private, no allocation path creates an entry without a
	// set/way slot.
	chk(res.PathCacheCapacity > 0, "path cache capacity not recorded")
	chk(res.PathCacheOccupancy <= res.PathCacheCapacity,
		"path cache occupancy %d > capacity %d", res.PathCacheOccupancy, res.PathCacheCapacity)

	if len(bad) > 0 {
		return fmt.Errorf("SMT stats invariants violated: %s", strings.Join(bad, "; "))
	}
	return nil
}

// checkPCacheAlgebra is the Prediction Cache's solo counter algebra,
// scoped by the caller: a private cache against one context's branches,
// a shared cache against the summed branches.
func checkPCacheAlgebra(chk func(bool, string, ...any), pfx string, pc *pcache.Stats, branches uint64, cfg cpu.Config) {
	if cfg.Mode == cpu.ModeMicrothread && cfg.UsePredictions {
		chk(pc.Hits+pc.Misses == branches,
			pfx+"pcache hits %d + misses %d != branches %d", pc.Hits, pc.Misses, branches)
	}
	chk(pc.Overwrites <= pc.Writes, pfx+"pcache overwrites %d > writes %d", pc.Overwrites, pc.Writes)
	if pc.Overwrites <= pc.Writes {
		chk(pc.Hits+pc.Expired+pc.Evictions <= pc.Writes-pc.Overwrites,
			pfx+"pcache hits %d + expired %d + evicted %d > installs %d",
			pc.Hits, pc.Expired, pc.Evictions, pc.Writes-pc.Overwrites)
	}
}

// checkPathCacheAlgebra is the Path Cache's solo counter algebra, scoped
// like checkPCacheAlgebra.
func checkPathCacheAlgebra(chk func(bool, string, ...any), pfx string, ph *pathcache.Stats, branches uint64) {
	chk(ph.Hits+ph.Misses <= branches,
		pfx+"path cache observes %d > branches %d", ph.Hits+ph.Misses, branches)
	chk(ph.Allocations+ph.AllocsAvoided == ph.Misses,
		pfx+"path cache allocations %d + avoided %d != misses %d", ph.Allocations, ph.AllocsAvoided, ph.Misses)
	chk(ph.Replacements <= ph.Allocations,
		pfx+"path cache replacements %d > allocations %d", ph.Replacements, ph.Allocations)
	chk(ph.Demotions <= ph.Promotions,
		pfx+"path cache demotions %d > promotions %d", ph.Demotions, ph.Promotions)
	chk(ph.DifficultCleared <= ph.DifficultSet,
		pfx+"difficult cleared %d > set %d", ph.DifficultCleared, ph.DifficultSet)
}

// CheckSMTTrace reconciles one machine-wide tracer against the
// per-context statistics of an SMT run. The tracer sees every context's
// events, so Micro-block kinds (always per-context counters) must match
// the sum over contexts, while structure-owned kinds match the
// machine-wide total: the sum of private copies, or context 0's combined
// copy when the structure is shared (summing the identical copies would
// count each event k times).
func CheckSMTTrace(tr *obs.Tracer, res *cpu.SMTResult) error {
	var micro cpu.MicroStats
	var pcSum pcache.Stats
	var phSum pathcache.Stats
	for i, c := range res.Contexts {
		micro.AttemptedSpawns += c.Micro.AttemptedSpawns
		micro.PrefixMismatchDrops += c.Micro.PrefixMismatchDrops
		micro.NoContextDrops += c.Micro.NoContextDrops
		micro.CoRunnerDenied += c.Micro.CoRunnerDenied
		micro.Spawned += c.Micro.Spawned
		micro.AbortedActive += c.Micro.AbortedActive
		micro.Completed += c.Micro.Completed
		micro.MemDepViolations += c.Micro.MemDepViolations
		micro.Early += c.Micro.Early
		micro.Late += c.Micro.Late
		micro.Useless += c.Micro.Useless
		if i == 0 || !res.SharedPCache {
			pcSum.Writes += c.PCache.Writes
		}
		if i == 0 || !res.SharedPathCache {
			phSum.Replacements += c.PathCache.Replacements
			phSum.Allocations += c.PathCache.Allocations
			phSum.Promotions += c.PathCache.Promotions
			phSum.Demotions += c.PathCache.Demotions
			phSum.PromotionsRejected += c.PathCache.PromotionsRejected
		}
	}
	pairs := []struct {
		kind obs.Kind
		want uint64
	}{
		{obs.KindSpawnAttempt, micro.AttemptedSpawns},
		{obs.KindSpawnDropPrefix, micro.PrefixMismatchDrops},
		{obs.KindSpawnDropNoContext, micro.NoContextDrops},
		{obs.KindSpawnDropCoRunner, micro.CoRunnerDenied},
		{obs.KindSpawn, micro.Spawned},
		{obs.KindAbortActive, micro.AbortedActive},
		{obs.KindComplete, micro.Completed},
		{obs.KindMemDepViolation, micro.MemDepViolations},
		{obs.KindDeliveryEarly, micro.Early},
		{obs.KindDeliveryLate, micro.Late},
		{obs.KindDeliveryUseless, micro.Useless},
		{obs.KindPCacheWrite, pcSum.Writes},
		{obs.KindPathReplace, phSum.Replacements},
		{obs.KindPathPromote, phSum.Promotions},
		{obs.KindPathDemote, phSum.Demotions},
		{obs.KindPathPromoteRejected, phSum.PromotionsRejected},
	}
	var bad []string
	for _, p := range pairs {
		if got := tr.Count(p.kind); got != p.want {
			bad = append(bad, fmt.Sprintf("trace.%v = %d, stats say %d", p.kind, got, p.want))
		}
	}
	if got := tr.Count(obs.KindPathAlloc) + tr.Count(obs.KindPathReplace); got != phSum.Allocations {
		bad = append(bad, fmt.Sprintf("trace allocs+replaces = %d, stats say %d", got, phSum.Allocations))
	}
	if len(bad) > 0 {
		return fmt.Errorf("SMT trace counters do not reconcile: %s", strings.Join(bad, "; "))
	}
	return nil
}

// smtConfigFromBits decodes one fuzzable SMT configuration: two
// contexts whose fetch policy is bit 0 and sharing flags bits 1..4.
// The fuzzer treats a zero bit field as "no SMT", so the existing
// single-thread corpus keeps its meaning.
func smtConfigFromBits(bits uint64) cpu.SMTConfig {
	policy := cpu.FetchRoundRobin
	if bits&1 != 0 {
		policy = cpu.FetchICount
	}
	return cpu.SMTConfig{
		Contexts:        []cpu.WorkloadRef{{Bench: "fuzz-a"}, {Bench: "fuzz-b"}},
		FetchPolicy:     policy,
		SharedPathCache: bits&2 != 0,
		SharedPCache:    bits&4 != 0,
		SharedMicroRAM:  bits&8 != 0,
		SharedPredictor: bits&16 != 0,
	}
}

// verifySMTSpecs is the fuzz/shrink entry point: generate both contexts'
// programs from their specs and verify the pair under cfg.
func verifySMTSpecs(a, b synth.RandSpec, cfg cpu.Config, opts SMTOptions) error {
	progs := []*program.Program{synth.RandomProgram(a), synth.RandomProgram(b)}
	return VerifySMT(progs, cfg, opts)
}
