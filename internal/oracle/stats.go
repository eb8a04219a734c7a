// Stats-algebra invariants: the conservation laws a run's counters must
// satisfy, per primary context and machine-wide, and the reconciliation
// of traced event counts with those counters. Each law is derived from
// the model's code paths (the relation is cited at each check), so a
// violation means a counter was double-counted, skipped, or the model
// took an impossible path — the cheap, always-on complement to the
// stream diff.
package oracle

import (
	"fmt"
	"strings"

	"dpbp/internal/bpred"
	"dpbp/internal/bpred/h2p"
	"dpbp/internal/bpred/tage"
	"dpbp/internal/cpu"
	"dpbp/internal/obs"
	"dpbp/internal/pathcache"
	"dpbp/internal/pcache"
)

// laws accumulates the conservation laws a check found broken.
type laws []string

// check returns a law checker: each law that does not hold is recorded
// with its message, prefixed by pfx (the context a per-context law was
// applied to).
func (l *laws) check(pfx string) func(ok bool, format string, args ...any) {
	return func(ok bool, format string, args ...any) {
		if !ok {
			*l = append(*l, pfx+fmt.Sprintf(format, args...))
		}
	}
}

// err joins the broken laws into one error, or returns nil if none broke.
func (l laws) err(what string) error {
	if len(l) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", what, strings.Join(l, "; "))
}

// CheckStats verifies the counter algebra of one run's Result: a solo
// run, or one primary context of an SMT run, whose shared structures it
// leaves to CheckSMTStats. cfg must be the canonical (defaults-applied)
// configuration the run used.
func CheckStats(res *cpu.Result, cfg cpu.Config) error {
	var l laws
	checkContext(l.check(""), res, cfg)
	return l.err("stats invariants violated")
}

// checkContext applies the laws that hold for one primary context's
// Result, solo or SMT. A structure the context shares with co-runners
// (cfg.SMT's SharedPCache and SharedPathCache) carries machine-wide
// counters, so its delivery and counter laws are left to CheckSMTStats,
// which checks them once against the summed branches.
func checkContext(chk func(bool, string, ...any), res *cpu.Result, cfg cpu.Config) {
	ms := &res.Micro

	// Retirement stream totals.
	chk(res.Branches <= res.Insts, "branches %d > insts %d", res.Branches, res.Insts)
	chk(res.HWMispredicts <= res.Branches, "hw mispredicts %d > branches %d", res.HWMispredicts, res.Branches)
	chk(res.Mispredicts <= res.Branches, "mispredicts %d > branches %d", res.Mispredicts, res.Branches)

	// Spawning: every attempt is dropped by the prefix screen, dropped
	// for lack of a microcontext, denied by co-runners holding the
	// machine-wide SMT budget, or spawned (trySpawns).
	chk(ms.AttemptedSpawns == ms.PrefixMismatchDrops+ms.NoContextDrops+ms.CoRunnerDenied+ms.Spawned,
		"attempts %d != prefix drops %d + no-context drops %d + co-runner denials %d + spawns %d",
		ms.AttemptedSpawns, ms.PrefixMismatchDrops, ms.NoContextDrops, ms.CoRunnerDenied, ms.Spawned)
	// Co-runner denials require co-runners: a solo machine has no shared
	// budget, and with one SMT context the budget equals the private
	// context array, so a free own slot implies a free budget slot.
	if len(cfg.SMT.Contexts) <= 1 {
		chk(ms.CoRunnerDenied == 0, "co-runner denials %d on a solo machine", ms.CoRunnerDenied)
	}

	// Microcontext lifecycle: spawned contexts complete, abort, or are
	// still in flight at run end — and in-flight is bounded by the
	// microcontext count.
	chk(ms.Completed+ms.AbortedActive <= ms.Spawned,
		"completions %d + aborts %d > spawns %d", ms.Completed, ms.AbortedActive, ms.Spawned)
	if ms.Completed+ms.AbortedActive <= ms.Spawned {
		inflight := ms.Spawned - ms.Completed - ms.AbortedActive
		chk(inflight <= uint64(cfg.Microcontexts),
			"%d contexts in flight at run end > %d microcontexts", inflight, cfg.Microcontexts)
	}

	// Delivery: every consumed prediction is classified exactly once
	// (handleBranch), early deliveries are exactly the used predictions,
	// and recoveries only arise from late deliveries.
	if !cfg.SMT.SharedPCache {
		chk(ms.Early+ms.Late+ms.Useless == res.PCache.Hits,
			"early %d + late %d + useless %d != prediction-cache hits %d",
			ms.Early, ms.Late, ms.Useless, res.PCache.Hits)
		checkPCacheAlgebra(chk, &res.PCache, res.Branches, cfg)
	}
	chk(ms.Early == ms.UsedPredictions, "early %d != used predictions %d", ms.Early, ms.UsedPredictions)
	chk(ms.UsedPredictions == ms.CorrectUsed+ms.WrongUsed,
		"used %d != correct %d + wrong %d", ms.UsedPredictions, ms.CorrectUsed, ms.WrongUsed)
	chk(ms.UsedFixed <= ms.CorrectUsed, "fixed %d > correct used %d", ms.UsedFixed, ms.CorrectUsed)
	chk(ms.UsedBroke <= ms.WrongUsed, "broke %d > wrong used %d", ms.UsedBroke, ms.WrongUsed)
	chk(ms.EarlyRecoveries+ms.BogusRecoveries <= ms.Late,
		"recoveries %d+%d > late deliveries %d", ms.EarlyRecoveries, ms.BogusRecoveries, ms.Late)

	if !cfg.SMT.SharedPathCache {
		checkPathCacheAlgebra(chk, &res.PathCache, res.Branches)
	}

	// Direction backend: handleBranch pairs exactly one Dir.Predict with
	// one Dir.Update per retired conditional branch, so the live
	// backend's counters reconcile with the front end's class totals,
	// and the inactive sections of the stats union stay zero. A shared
	// predictor gives each context the same machine-wide copy of both
	// sides, so the laws hold per context in every sharing mode.
	checkBackendStats(chk, res, cfg)

	// Builder (always private to its context).
	chk(ms.Rebuilds <= res.Build.Builds, "rebuilds %d > builds %d", ms.Rebuilds, res.Build.Builds)
	chk(res.Build.Builds <= res.Build.SizeSum || res.Build.Builds == 0,
		"builds %d > size sum %d (empty routines?)", res.Build.Builds, res.Build.SizeSum)

	// Modes without the microthread machinery must not touch it at all.
	if cfg.Mode == cpu.ModeBaseline || cfg.Mode == cpu.ModePerfectAll || cfg.Mode == cpu.ModePerfectPromoted {
		chk(res.Micro == (cpu.MicroStats{}), "micro stats nonzero in mode %v: %+v", cfg.Mode, res.Micro)
		chk(res.PCache == (pcache.Stats{}), "prediction-cache stats nonzero in mode %v", cfg.Mode)
	}
	if cfg.Mode == cpu.ModeBaseline || cfg.Mode == cpu.ModePerfectAll {
		chk(res.PathCache == (pathcache.Stats{}), "path-cache stats nonzero in mode %v", cfg.Mode)
	}
}

// CheckSMTStats verifies the conservation laws of one SMT run: the
// per-context laws of CheckStats on every context, the laws of the
// structures the contexts share, and the machine-wide laws with no solo
// analogue. A shared structure's counters are machine-wide and every
// context carries an identical copy, so its laws are checked once,
// against the summed stream. cfg must be the canonical configuration the
// run used.
func CheckSMTStats(res *cpu.SMTResult, cfg cpu.Config) error {
	var l laws
	chk := l.check("")
	smt := cfg.SMT
	k := len(res.Contexts)
	chk(k == len(smt.Contexts), "%d context results for %d configured contexts", k, len(smt.Contexts))
	chk(res.SharedPathCache == smt.SharedPathCache && res.SharedPCache == smt.SharedPCache &&
		res.SharedMicroRAM == smt.SharedMicroRAM && res.SharedPredictor == smt.SharedPredictor,
		"sharing flags in result do not match the configuration")

	var sumBranches, sumInflight, sumDeliveries, maxCycles uint64
	for i, c := range res.Contexts {
		checkContext(l.check(fmt.Sprintf("ctx %d: ", i)), c, cfg)
		ms := &c.Micro
		sumBranches += c.Branches
		maxCycles = max(maxCycles, c.Cycles)
		if ms.Completed+ms.AbortedActive <= ms.Spawned {
			sumInflight += ms.Spawned - ms.Completed - ms.AbortedActive
		}
		sumDeliveries += ms.Early + ms.Late + ms.Useless
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
		checkPCacheAlgebra(l.check("shared: "), &pc, sumBranches, cfg)
	}
	if smt.SharedPathCache && k > 0 {
		ph := res.Contexts[0].PathCache
		for i, c := range res.Contexts[1:] {
			chk(c.PathCache == ph, "ctx %d: shared path-cache stats differ from ctx 0", i+1)
		}
		checkPathCacheAlgebra(l.check("shared: "), &ph, sumBranches)
	}

	// Occupancy: valid Path Cache entries can never exceed capacity —
	// shared or private, no allocation path creates an entry without a
	// set/way slot.
	chk(res.PathCacheCapacity > 0, "path cache capacity not recorded")
	chk(res.PathCacheOccupancy <= res.PathCacheCapacity,
		"path cache occupancy %d > capacity %d", res.PathCacheOccupancy, res.PathCacheCapacity)

	return l.err("SMT stats invariants violated")
}

// checkPCacheAlgebra is the Prediction Cache's counter algebra, scoped by
// the caller: a private cache against one context's branches, a shared
// cache against the summed branches. The front end probes the cache once
// per retired terminating branch when predictions are in use; every entry
// that hit, expired, or was evicted was first installed by a
// non-overwriting write.
func checkPCacheAlgebra(chk func(bool, string, ...any), pc *pcache.Stats, branches uint64, cfg cpu.Config) {
	if cfg.Mode == cpu.ModeMicrothread && cfg.UsePredictions {
		chk(pc.Hits+pc.Misses == branches,
			"pcache hits %d + misses %d != branches %d", pc.Hits, pc.Misses, branches)
	}
	chk(pc.Overwrites <= pc.Writes, "pcache overwrites %d > writes %d", pc.Overwrites, pc.Writes)
	if pc.Overwrites <= pc.Writes {
		chk(pc.Hits+pc.Expired+pc.Evictions <= pc.Writes-pc.Overwrites,
			"pcache hits %d + expired %d + evicted %d > installs %d",
			pc.Hits, pc.Expired, pc.Evictions, pc.Writes-pc.Overwrites)
	}
}

// checkPathCacheAlgebra is the Path Cache's counter algebra, scoped like
// checkPCacheAlgebra. Observes split into hits and misses; misses split
// into allocations and avoided allocations; a replacement is an
// allocation; every counted demotion clears a bit a counted promotion set
// (replacement wipes the bit without counting, so promotions can only
// exceed demotions, never trail them).
func checkPathCacheAlgebra(chk func(bool, string, ...any), ph *pathcache.Stats, branches uint64) {
	chk(ph.Hits+ph.Misses <= branches,
		"path cache observes %d > branches %d", ph.Hits+ph.Misses, branches)
	chk(ph.Allocations+ph.AllocsAvoided == ph.Misses,
		"path cache allocations %d + avoided %d != misses %d", ph.Allocations, ph.AllocsAvoided, ph.Misses)
	chk(ph.Replacements <= ph.Allocations,
		"path cache replacements %d > allocations %d", ph.Replacements, ph.Allocations)
	chk(ph.Demotions <= ph.Promotions,
		"path cache demotions %d > promotions %d", ph.Demotions, ph.Promotions)
	chk(ph.DifficultCleared <= ph.DifficultSet,
		"difficult cleared %d > set %d", ph.DifficultCleared, ph.DifficultSet)
}

// checkBackendStats verifies the direction-backend counter algebra for
// the backend cfg selects. The laws are cited from the backend
// implementations: each documents where the relation comes from.
func checkBackendStats(chk func(bool, string, ...any), res *cpu.Result, cfg cpu.Config) {
	bs := &res.Backend
	ps := &res.PredStats
	switch cfg.Canonical().BPred {
	case bpred.BackendHybrid:
		h := &bs.Hybrid
		chk(h.Lookups == ps.CondPredicted && h.Updates == ps.CondPredicted,
			"hybrid lookups %d / updates %d != cond branches %d", h.Lookups, h.Updates, ps.CondPredicted)
		// The selector picks exactly one component per update.
		chk(h.GshareSelected+h.PAsSelected == h.Updates,
			"hybrid gshare %d + pas %d != updates %d", h.GshareSelected, h.PAsSelected, h.Updates)
		chk(h.Disagreements <= h.Updates, "hybrid disagreements %d > updates %d", h.Disagreements, h.Updates)
		// The backend's own correctness count is the front end's.
		chk(h.Correct == ps.CondPredicted-ps.CondMispredicted,
			"hybrid correct %d != cond %d - mispredicted %d", h.Correct, ps.CondPredicted, ps.CondMispredicted)
		chk(bs.TAGE == (tage.Stats{}) && bs.H2P == (h2p.Stats{}),
			"inactive backend sections nonzero under hybrid")
	case bpred.BackendTAGE:
		t := &bs.TAGE
		chk(t.Lookups == ps.CondPredicted && t.Updates == ps.CondPredicted,
			"tage lookups %d / updates %d != cond branches %d", t.Lookups, t.Updates, ps.CondPredicted)
		// Every update has exactly one provider (tagged hit or bimodal).
		chk(t.ProviderTagged+t.ProviderBimodal == t.Updates,
			"tage providers %d+%d != updates %d", t.ProviderTagged, t.ProviderBimodal, t.Updates)
		chk(t.AltUsed <= t.ProviderTagged, "tage alt-used %d > tagged providers %d", t.AltUsed, t.ProviderTagged)
		chk(t.Correct+t.Mispredicts == t.Updates,
			"tage correct %d + mispredicts %d != updates %d", t.Correct, t.Mispredicts, t.Updates)
		chk(t.Mispredicts == ps.CondMispredicted,
			"tage mispredicts %d != cond mispredicted %d", t.Mispredicts, ps.CondMispredicted)
		// Allocation is attempted only on a mispredict with a longer
		// table available.
		chk(t.Allocations+t.AllocFailed <= t.Mispredicts,
			"tage allocations %d + failed %d > mispredicts %d", t.Allocations, t.AllocFailed, t.Mispredicts)
		// sinceDecay advances once per update and wraps at the interval.
		interval := tage.DefaultConfig().UDecayInterval
		chk(t.UDecays == t.Updates/uint64(interval),
			"tage decays %d != updates %d / interval %d", t.UDecays, t.Updates, interval)
		chk(bs.Hybrid == (bpred.HybridStats{}) && bs.H2P == (h2p.Stats{}),
			"inactive backend sections nonzero under tage")
	case bpred.BackendH2P:
		h := &bs.H2P
		chk(h.Lookups == ps.CondPredicted && h.Updates == ps.CondPredicted,
			"h2p lookups %d / updates %d != cond branches %d", h.Lookups, h.Updates, ps.CondPredicted)
		// Every override is scored exactly once.
		chk(h.Overrides == h.OverrideCorrect+h.OverrideWrong,
			"h2p overrides %d != correct %d + wrong %d", h.Overrides, h.OverrideCorrect, h.OverrideWrong)
		// Overriding requires the branch be classified hard-to-predict.
		chk(h.Overrides <= h.H2PBranches && h.H2PBranches <= h.Updates,
			"h2p overrides %d > h2p branches %d or > updates %d", h.Overrides, h.H2PBranches, h.Updates)
		chk(h.BaseMispredicts <= h.Updates, "h2p base mispredicts %d > updates %d", h.BaseMispredicts, h.Updates)
		chk(bs.Hybrid == (bpred.HybridStats{}) && bs.TAGE == (tage.Stats{}),
			"inactive backend sections nonzero under h2p")
	}

	// The spawn gate exists only when configured, and every skip rejected
	// a promotion.
	gateOn := cfg.H2PSpawnGate && (cfg.Mode == cpu.ModeMicrothread || cfg.Mode == cpu.ModePerfectPromoted)
	if !gateOn {
		chk(res.Micro.H2PGateSkips == 0, "h2p gate skips %d with gate off", res.Micro.H2PGateSkips)
	}
	chk(res.Micro.H2PGateSkips <= res.PathCache.PromotionsRejected,
		"h2p gate skips %d > rejected promotions %d", res.Micro.H2PGateSkips, res.PathCache.PromotionsRejected)
}

// CheckTrace reconciles an attached tracer's per-kind event counts with
// the legacy statistics of the run it observed.
func CheckTrace(tr *obs.Tracer, res *cpu.Result) error {
	return reconcileTrace(tr, []*cpu.Result{res}, false, false)
}

// CheckSMTTrace reconciles one machine-wide tracer against the
// per-context statistics of an SMT run.
func CheckSMTTrace(tr *obs.Tracer, res *cpu.SMTResult) error {
	return reconcileTrace(tr, res.Contexts, res.SharedPCache, res.SharedPathCache)
}

// reconcileTrace reconciles one tracer that saw every context's events
// with the contexts' statistics. Every emit site pairs with exactly one
// counter increment, so each kind's count must equal its counter's
// machine-wide total exactly: the sum over contexts for the Micro block
// (always per-context) and for private structures, and context 0's copy
// for a shared structure (summing the identical copies would count each
// event once per context).
func reconcileTrace(tr *obs.Tracer, ctxs []*cpu.Result, sharedPCache, sharedPathCache bool) error {
	var want [obs.NumKinds]uint64
	for i, c := range ctxs {
		ms, pc, ph := &c.Micro, &c.PCache, &c.PathCache
		if i > 0 && sharedPCache {
			pc = &pcache.Stats{}
		}
		if i > 0 && sharedPathCache {
			ph = &pathcache.Stats{}
		}
		for k, n := range [obs.NumKinds]uint64{
			obs.KindSpawnAttempt:       ms.AttemptedSpawns,
			obs.KindSpawnDropPrefix:    ms.PrefixMismatchDrops,
			obs.KindSpawnDropNoContext: ms.NoContextDrops,
			obs.KindSpawnDropCoRunner:  ms.CoRunnerDenied,
			obs.KindSpawn:              ms.Spawned,
			obs.KindAbortActive:        ms.AbortedActive,
			obs.KindComplete:           ms.Completed,
			obs.KindMemDepViolation:    ms.MemDepViolations,
			obs.KindDeliveryEarly:      ms.Early,
			obs.KindDeliveryLate:       ms.Late,
			obs.KindDeliveryUseless:    ms.Useless,
			obs.KindPCacheWrite:        pc.Writes,
			// An allocation fills an invalid way or replaces a victim.
			obs.KindPathAlloc:           ph.Allocations - ph.Replacements,
			obs.KindPathReplace:         ph.Replacements,
			obs.KindPathPromote:         ph.Promotions,
			obs.KindPathDemote:          ph.Demotions,
			obs.KindPathPromoteRejected: ph.PromotionsRejected,
		} {
			want[k] += n
		}
	}
	var l laws
	chk := l.check("")
	for k, n := range want {
		got := tr.Count(obs.Kind(k))
		chk(got == n, "trace.%v = %d, stats say %d", obs.Kind(k), got, n)
	}
	return l.err("trace counters do not reconcile")
}
