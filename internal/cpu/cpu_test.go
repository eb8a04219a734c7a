package cpu

import (
	"testing"

	"dpbp/internal/isa"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

func run(t *testing.T, bench string, mut func(*Config)) *Result {
	t.Helper()
	p, err := synth.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	if mut != nil {
		mut(&cfg)
	}
	return Run(synth.Generate(p), cfg)
}

func TestBaselineSanity(t *testing.T) {
	r := run(t, "comp", func(c *Config) { c.Mode = ModeBaseline })
	if r.Insts == 0 || r.Cycles == 0 {
		t.Fatalf("empty run: %+v", r)
	}
	ipc := r.IPC()
	if ipc < 0.5 || ipc > 16 {
		t.Errorf("baseline IPC %.2f implausible", ipc)
	}
	if r.Branches == 0 || r.Mispredicts == 0 {
		t.Errorf("branch stats empty: %+v", r)
	}
	if r.Mispredicts != r.HWMispredicts {
		t.Errorf("baseline machine mispredicts %d != hw %d", r.Mispredicts, r.HWMispredicts)
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}

func TestPerfectPredictionSpeedsUp(t *testing.T) {
	base := run(t, "comp", func(c *Config) { c.Mode = ModeBaseline })
	perf := run(t, "comp", func(c *Config) { c.Mode = ModePerfectAll })
	if perf.Mispredicts != 0 {
		t.Errorf("perfect mode mispredicted %d times", perf.Mispredicts)
	}
	sp := perf.Speedup(base)
	if sp <= 1.05 {
		t.Errorf("perfect prediction speedup %.3f; mispredictions are not costing cycles", sp)
	}
}

func TestMispredictPenaltyNearTwenty(t *testing.T) {
	// The cycle cost per removed misprediction should be near the
	// Table 3 total penalty of 20 cycles.
	base := run(t, "comp", func(c *Config) { c.Mode = ModeBaseline })
	perf := run(t, "comp", func(c *Config) { c.Mode = ModePerfectAll })
	saved := float64(base.Cycles - perf.Cycles)
	per := saved / float64(base.Mispredicts)
	if per < 8 || per > 40 {
		t.Errorf("cycles per misprediction %.1f, want near 20", per)
	}
}

func TestPotentialBeatsBaseline(t *testing.T) {
	base := run(t, "go", func(c *Config) { c.Mode = ModeBaseline })
	pot := run(t, "go", func(c *Config) { c.Mode = ModePerfectPromoted })
	if pot.Mispredicts >= base.Mispredicts {
		t.Errorf("potential mode did not remove mispredictions: %d vs %d",
			pot.Mispredicts, base.Mispredicts)
	}
	if pot.IPC() <= base.IPC() {
		t.Errorf("potential IPC %.3f <= baseline %.3f", pot.IPC(), base.IPC())
	}
	if pot.PathCache.Promotions == 0 {
		t.Error("no promotions in potential mode")
	}
}

func TestMicrothreadsRemoveMispredictions(t *testing.T) {
	base := run(t, "comp", func(c *Config) { c.Mode = ModeBaseline })
	mt := run(t, "comp", nil) // full mechanism with pruning
	if mt.Micro.Spawned == 0 {
		t.Fatal("no microthreads spawned")
	}
	if mt.Micro.UsedPredictions == 0 {
		t.Fatal("no microthread predictions used")
	}
	if mt.Micro.CorrectUsed <= mt.Micro.WrongUsed {
		t.Errorf("microthread predictions mostly wrong: %d correct vs %d wrong",
			mt.Micro.CorrectUsed, mt.Micro.WrongUsed)
	}
	if mt.Mispredicts >= base.Mispredicts {
		t.Errorf("mechanism did not reduce mispredictions: %d vs baseline %d",
			mt.Mispredicts, base.Mispredicts)
	}
	if mt.IPC() <= base.IPC() {
		t.Errorf("mechanism IPC %.3f <= baseline %.3f", mt.IPC(), base.IPC())
	}
}

func TestOverheadOnlyDoesNotUsePredictions(t *testing.T) {
	ov := run(t, "comp", func(c *Config) {
		c.UsePredictions = false
		c.Pruning = false
	})
	if ov.Micro.UsedPredictions != 0 || ov.Micro.Early+ov.Micro.Late+ov.Micro.Useless != 0 {
		t.Errorf("overhead-only run consumed predictions: %+v", ov.Micro)
	}
	if ov.Micro.Spawned == 0 {
		t.Error("overhead-only run spawned nothing")
	}
	if ov.Mispredicts != ov.HWMispredicts {
		t.Error("overhead-only run changed misprediction behaviour")
	}
}

func TestPruningShrinksRoutines(t *testing.T) {
	noPrune := run(t, "ijpeg", func(c *Config) { c.Pruning = false })
	prune := run(t, "ijpeg", nil)
	if noPrune.Build.Builds == 0 || prune.Build.Builds == 0 {
		t.Fatalf("no builds: %d / %d", noPrune.Build.Builds, prune.Build.Builds)
	}
	if prune.Build.PrunedSubtrees == 0 {
		t.Error("pruning run pruned nothing")
	}
	if prune.AvgDepChain >= noPrune.AvgDepChain {
		t.Errorf("pruning did not shorten dependence chains: %.2f vs %.2f",
			prune.AvgDepChain, noPrune.AvgDepChain)
	}
}

func TestAbortMechanismFreesContexts(t *testing.T) {
	on := run(t, "go", nil)
	if on.Micro.AbortedActive == 0 {
		t.Error("abort mechanism never fired on a branchy benchmark")
	}
	frac := on.Micro.AbortActiveFraction()
	if frac < 0.01 || frac > 0.99 {
		t.Errorf("active-abort fraction %.2f implausible", frac)
	}
}

func TestTimelinessCategoriesPopulated(t *testing.T) {
	r := run(t, "comp", nil)
	total := r.Micro.Early + r.Micro.Late + r.Micro.Useless
	if total == 0 {
		t.Fatal("no consumed predictions")
	}
	// The paper's Figure 9: all three categories occur; late dominates
	// on the aggressive machine.
	if r.Micro.Late == 0 {
		t.Error("no late predictions; timing model suspicious")
	}
}

func TestPathCacheAllocAvoidance(t *testing.T) {
	r := run(t, "gcc", nil)
	f := r.PathCache.AllocsAvoided
	if f == 0 {
		t.Error("allocate-on-mispredict never avoided an allocation")
	}
}

// memDepProgram is a loop whose difficult branch's slice loads a word
// that a store between spawn and branch sometimes overwrites:
//
//	loop:
//	  v = mem[A]; v = v*1103515245 + 12345   (an LCG step)
//	  if bit 16 of v == 0 skip: acc++        <- the difficult branch
//	skip:
//	  mem[S + (i&1)*(A-S)] = v               <- hits A on odd i only
//	  i--; bnez i, loop
//
// On even iterations the store goes to the scratch word S, so a PRB
// trace built there shows no store feeding the slice's load: the
// builder's memory-dependence rule (termination rule 3) does not fire,
// and the spawn point lands before the next store. An odd iteration's
// store then overwrites A after the spawn, which is a violation.
func memDepProgram() *program.Program {
	const a, s = 1 << 20, 1 << 21
	b := program.NewBuilder("memdep")
	b.Label("entry")
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 4, Imm: 100_000}) // i
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 5, Imm: a})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 10, Imm: s})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 11, Imm: a - s})
	b.Label("loop")
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 6, Src1: 5})
	b.Emit(isa.Inst{Op: isa.OpMuli, Dst: 6, Src1: 6, Imm: 1103515245})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 6, Src1: 6, Imm: 12345})
	b.Emit(isa.Inst{Op: isa.OpShri, Dst: 7, Src1: 6, Imm: 16})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: 7, Src1: 7, Imm: 1})
	b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: 7}, "skip")
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 9, Src1: 9, Imm: 1})
	b.Label("skip")
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: 8, Src1: 4, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpMul, Dst: 8, Src1: 8, Src2: 11})
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: 8, Src1: 8, Src2: 10})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: 8, Src2: 6})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 4, Src1: 4, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: 4}, "loop")
	b.Label("halt")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "halt")
	return b.Finish()
}

// memDepConfig runs memDepProgram long enough for the violation to
// occur, with pruning off so the branch's path is promoted unpruned.
func memDepConfig(rebuild bool) Config {
	cfg := DefaultConfig()
	cfg.MaxInsts = 200_000
	cfg.Pruning = false
	cfg.RebuildOnViolation = rebuild
	return cfg
}

// TestMemDepViolationTriggersRebuild holds paper Section 4.2.4: the
// monitor detects a store that clobbers an active microthread's load,
// and the path's routine is rebuilt, at most once per violation.
func TestMemDepViolationTriggersRebuild(t *testing.T) {
	r := Run(memDepProgram(), memDepConfig(true))
	if r.Micro.MemDepViolations == 0 {
		t.Fatalf("no memory-dependence violations detected (spawned %d)", r.Micro.Spawned)
	}
	if r.Micro.Rebuilds == 0 || r.Micro.Rebuilds > r.Micro.MemDepViolations {
		t.Errorf("rebuilds = %d, want 1..%d (one per violation at most)",
			r.Micro.Rebuilds, r.Micro.MemDepViolations)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, "li", nil)
	b := run(t, "li", nil)
	if a.Cycles != b.Cycles || a.Insts != b.Insts || a.Mispredicts != b.Mispredicts {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestWindowLimitsILP(t *testing.T) {
	// A tiny window should hurt IPC on a memory-heavy benchmark.
	big := run(t, "mcf_2k", func(c *Config) { c.Mode = ModeBaseline })
	small := run(t, "mcf_2k", func(c *Config) {
		c.Mode = ModeBaseline
		c.WindowSize = 16
	})
	if small.IPC() >= big.IPC() {
		t.Errorf("window size has no effect: %.3f vs %.3f", small.IPC(), big.IPC())
	}
}

func TestFetchWidthLimitsIPC(t *testing.T) {
	wide := run(t, "eon_2k", func(c *Config) { c.Mode = ModeBaseline })
	narrow := run(t, "eon_2k", func(c *Config) {
		c.Mode = ModeBaseline
		c.FetchWidth = 2
		c.BranchesPerCycle = 1
	})
	if narrow.IPC() >= wide.IPC() {
		t.Errorf("fetch width has no effect: %.3f vs %.3f", narrow.IPC(), wide.IPC())
	}
	if narrow.IPC() > 2.01 {
		t.Errorf("2-wide fetch produced IPC %.2f > 2", narrow.IPC())
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{
		ModeBaseline: "baseline", ModePerfectAll: "perfect",
		ModePerfectPromoted: "potential", ModeMicrothread: "microthread",
		Mode(99): "unknown",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestStatsFractions(t *testing.T) {
	var ms MicroStats
	if ms.AbortPreFraction() != 0 || ms.AbortActiveFraction() != 0 {
		t.Error("zero stats should give zero fractions")
	}
	ms.AttemptedSpawns = 100
	ms.PrefixMismatchDrops = 60
	ms.NoContextDrops = 7
	ms.Spawned = 33
	ms.AbortedActive = 22
	if ms.PreAllocationDrops() != 67 {
		t.Errorf("PreAllocationDrops = %d", ms.PreAllocationDrops())
	}
	if ms.AbortPreFraction() != 0.67 {
		t.Errorf("AbortPreFraction = %f", ms.AbortPreFraction())
	}
	if got := ms.AbortActiveFraction(); got < 0.66 || got > 0.67 {
		t.Errorf("AbortActiveFraction = %f", got)
	}
}
