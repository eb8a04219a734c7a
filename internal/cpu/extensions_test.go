package cpu

// Tests for the future-work extensions: spawn throttling, profile-guided
// promotion, and the rebuild-on-violation ablation toggle.

import (
	"testing"

	"dpbp/internal/pathprof"
	"dpbp/internal/synth"
)

func TestThrottleFiresOnLowYield(t *testing.T) {
	// eon_2k is well-behaved: lots of spawns, few fixes. A harsh yield
	// floor must suspend spawning for some windows.
	p, _ := synth.ProfileByName("eon_2k")
	prog := synth.Generate(p)
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	cfg.Throttle = true
	cfg.ThrottleWindow = 1024
	cfg.ThrottleMinYield = 0.5 // essentially unattainable
	r := Run(prog, cfg)
	if r.Micro.ThrottledWindows == 0 {
		t.Fatal("harsh throttle never fired")
	}
	if r.Micro.SkippedByThrottle == 0 {
		t.Fatal("throttled windows skipped no spawns")
	}
	// With throttling off, more spawns happen.
	cfg.Throttle = false
	r2 := Run(prog, cfg)
	if r2.Micro.Spawned <= r.Micro.Spawned {
		t.Errorf("throttle did not reduce spawning: %d vs %d",
			r.Micro.Spawned, r2.Micro.Spawned)
	}
}

func TestThrottleHarmlessOnHighYield(t *testing.T) {
	// With an attainable floor, comp (good yield) should throttle rarely
	// and keep nearly all of its gains.
	p, _ := synth.ProfileByName("comp")
	prog := synth.Generate(p)
	base := DefaultConfig()
	base.MaxInsts = 300_000
	r := Run(prog, base)
	cfg := base
	cfg.Throttle = true
	rt := Run(prog, cfg)
	if rt.Micro.UsedFixed < r.Micro.UsedFixed/2 {
		t.Errorf("permissive throttle destroyed yield: fixed %d vs %d",
			rt.Micro.UsedFixed, r.Micro.UsedFixed)
	}
}

func TestThrottleReprobes(t *testing.T) {
	// Even a harsh throttle must alternate back to probing: spawning
	// never stops permanently.
	p, _ := synth.ProfileByName("go")
	prog := synth.Generate(p)
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	cfg.Throttle = true
	cfg.ThrottleWindow = 512
	cfg.ThrottleMinYield = 0.9
	r := Run(prog, cfg)
	if r.Micro.ThrottledWindows < 2 {
		t.Skip("not enough windows to observe re-probing")
	}
	// Multiple throttled windows imply intermediate probe windows
	// (throttled windows cannot be consecutive by construction), so
	// spawning happened between them.
	if r.Micro.Spawned == 0 {
		t.Error("throttle permanently disabled spawning")
	}
}

func TestProfileGuidedPromotion(t *testing.T) {
	p, _ := synth.ProfileByName("vortex")
	prog := synth.Generate(p)

	// Offline profile pass, then feed the top difficult paths in.
	prof := pathprof.Run(prog, pathprof.Config{Ns: []int{10}, MaxInsts: 300_000})
	ids := prof.DifficultPathIDs(10, 0.10, 512)
	if len(ids) == 0 {
		t.Fatal("profiler found no difficult paths")
	}

	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	cfg.PrePromoted = ids
	r := Run(prog, cfg)
	if r.Build.Builds == 0 {
		t.Fatal("profile-guided run built no routines")
	}
	if r.Micro.UsedFixed == 0 {
		t.Error("profile-guided routines fixed nothing")
	}

	base := DefaultConfig()
	base.Mode = ModeBaseline
	base.MaxInsts = 300_000
	rb := Run(prog, base)
	if r.Speedup(rb) < 1.0 {
		t.Errorf("profile-guided run lost performance: %.3f", r.Speedup(rb))
	}
}

func TestProfileGuidedPotential(t *testing.T) {
	// In ModePerfectPromoted, pre-promoted paths take effect without any
	// Path Cache warm-up, so the pre-promoted run must remove at least
	// as many mispredictions as a dynamic run warming up from cold on a
	// short window.
	p, _ := synth.ProfileByName("go")
	prog := synth.Generate(p)
	prof := pathprof.Run(prog, pathprof.Config{Ns: []int{10}, MaxInsts: 300_000})
	ids := prof.DifficultPathIDs(10, 0.10, 8<<10)

	mk := func(pre []uint64) *Result {
		cfg := DefaultConfig()
		cfg.Mode = ModePerfectPromoted
		cfg.MaxInsts = 150_000
		cfg.PrePromoted = pre
		return Run(prog, cfg)
	}
	static := mk(ids)
	dynamic := mk(nil)
	if static.Mispredicts > dynamic.Mispredicts {
		t.Errorf("profile-guided potential (%d mispredicts) worse than cold dynamic (%d)",
			static.Mispredicts, dynamic.Mispredicts)
	}
}

// TestRebuildToggle turns RebuildOnViolation off on memDepProgram:
// violations are still detected, nothing is rebuilt, and the stale
// routine keeps violating where the rebuilt one stops.
func TestRebuildToggle(t *testing.T) {
	prog := memDepProgram()
	ron := Run(prog, memDepConfig(true))
	roff := Run(prog, memDepConfig(false))
	if roff.Micro.MemDepViolations == 0 {
		t.Fatal("violation detection disappeared with rebuild off")
	}
	if roff.Micro.Rebuilds != 0 {
		t.Errorf("rebuilds happened with RebuildOnViolation off: %d", roff.Micro.Rebuilds)
	}
	if roff.Micro.MemDepViolations <= ron.Micro.MemDepViolations {
		t.Errorf("violations: %d with rebuild off, %d with it on; the rebuild should stop them",
			roff.Micro.MemDepViolations, ron.Micro.MemDepViolations)
	}
}

func TestDifficultPathIDsOrderingAndLimit(t *testing.T) {
	p, _ := synth.ProfileByName("comp")
	prog := synth.Generate(p)
	prof := pathprof.Run(prog, pathprof.Config{Ns: []int{10}, MaxInsts: 200_000})
	all := prof.DifficultPathIDs(10, 0.10, 0)
	if len(all) == 0 {
		t.Fatal("no difficult paths")
	}
	top := prof.DifficultPathIDs(10, 0.10, 5)
	if len(top) != 5 {
		t.Fatalf("limit not applied: %d", len(top))
	}
	for i := range top {
		if top[i] != all[i] {
			t.Error("limited list is not a prefix of the full ordering")
		}
	}
	if got := prof.DifficultPathIDs(99, 0.10, 0); got != nil {
		t.Error("unknown n should return nil")
	}
}

func TestWrongPathSpawns(t *testing.T) {
	p, _ := synth.ProfileByName("go")
	prog := synth.Generate(p)
	off := DefaultConfig()
	off.MaxInsts = 250_000
	roff := Run(prog, off)

	on := off
	on.WrongPathSpawns = true
	ron := Run(prog, on)

	if roff.Micro.WrongPathAttempts != 0 {
		t.Errorf("wrong-path attempts counted with feature off: %d", roff.Micro.WrongPathAttempts)
	}
	if ron.Micro.WrongPathAttempts == 0 {
		t.Fatal("wrong-path spawning never fired on a mispredict-heavy benchmark")
	}
	if ron.Micro.AttemptedSpawns <= roff.Micro.AttemptedSpawns {
		t.Errorf("wrong-path spawning did not raise attempts: %d vs %d",
			ron.Micro.AttemptedSpawns, roff.Micro.AttemptedSpawns)
	}
	// Wrong-path spawns are overhead: aborted or expired, never a large
	// gain. IPC must stay within a few percent.
	if ron.Insts != roff.Insts {
		t.Fatal("instruction stream diverged")
	}
	ratio := float64(ron.Cycles) / float64(roff.Cycles)
	if ratio < 0.95 || ratio > 1.15 {
		t.Errorf("wrong-path spawning changed cycles by %.2fx; model unstable", ratio)
	}
}

func TestH2PSpawnGate(t *testing.T) {
	// On ijpeg the default-sized filter leaves enough branches
	// unclassified to refuse promotions (139 at this budget).
	p, _ := synth.ProfileByName("ijpeg")
	prog := synth.Generate(p)
	off := DefaultConfig()
	off.MaxInsts = 250_000
	roff := Run(prog, off)
	if roff.Micro.H2PGateSkips != 0 {
		t.Errorf("gate skips counted with gate off: %d", roff.Micro.H2PGateSkips)
	}

	on := off
	on.H2PSpawnGate = true
	ron := Run(prog, on)
	if ron.Micro.H2PGateSkips == 0 {
		t.Fatal("gate never rejected a promotion")
	}
	if ron.Micro.Spawned >= roff.Micro.Spawned {
		t.Errorf("gate did not reduce spawning: %d vs %d",
			ron.Micro.Spawned, roff.Micro.Spawned)
	}
	if ron.PathCache.PromotionsRejected == 0 {
		t.Error("gate skips not accounted as Path Cache promotion rejections")
	}
	if ron.Insts != roff.Insts {
		t.Fatal("instruction stream diverged")
	}
}

func TestBackendSpecPlumbed(t *testing.T) {
	// Each backend must actually steer fetch: baseline-mode mispredict
	// counts differ between backends, and the matching BackendStats
	// section is populated.
	p, _ := synth.ProfileByName("go")
	prog := synth.Generate(p)
	base := DefaultConfig()
	base.Mode = ModeBaseline
	base.MaxInsts = 200_000

	hybrid := Run(prog, base)
	if hybrid.Backend.Hybrid.Updates == 0 || hybrid.Backend.Hybrid.Updates != hybrid.PredStats.CondPredicted {
		t.Fatalf("hybrid backend stats not reconciled: %+v vs cond %d",
			hybrid.Backend.Hybrid, hybrid.PredStats.CondPredicted)
	}

	tcfg := base
	tcfg.BPred = "tage"
	tg := Run(prog, tcfg)
	if tg.Backend.TAGE.Updates != tg.PredStats.CondPredicted {
		t.Fatalf("tage backend stats not reconciled: %+v", tg.Backend.TAGE)
	}
	if tg.HWMispredicts == hybrid.HWMispredicts {
		t.Error("tage backend produced identical mispredicts to hybrid; spec likely not plumbed")
	}

	hcfg := base
	hcfg.BPred = "h2p"
	h := Run(prog, hcfg)
	if h.Backend.H2P.Updates != h.PredStats.CondPredicted {
		t.Fatalf("h2p backend stats not reconciled: %+v", h.Backend.H2P)
	}
	if h.Backend.H2P.H2PBranches == 0 {
		t.Error("h2p filter never classified a branch on a mispredict-heavy benchmark")
	}
	if h.Insts != hybrid.Insts || tg.Insts != hybrid.Insts {
		t.Fatal("instruction stream diverged across backends")
	}
}
