package cpu

// Unit tests of the timing core's internal machinery: resource calendars,
// front-end gating, retirement bandwidth, and branch-handling corner
// cases.

import (
	"testing"

	"dpbp/internal/isa"
	"dpbp/internal/pathcache"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

func TestCalendarBasics(t *testing.T) {
	c := newCalendar(2)
	if got := c.earliest(10); got != 10 {
		t.Errorf("first booking at %d, want 10", got)
	}
	if got := c.earliest(10); got != 10 {
		t.Errorf("second booking at %d, want 10", got)
	}
	if got := c.earliest(10); got != 11 {
		t.Errorf("third booking at %d, want 11 (limit 2)", got)
	}
	if c.usedAt(10) != 2 || c.usedAt(11) != 1 {
		t.Errorf("usage wrong: %d %d", c.usedAt(10), c.usedAt(11))
	}
}

func TestCalendarRemove(t *testing.T) {
	c := newCalendar(1)
	c.add(5)
	c.remove(5)
	if got := c.earliest(5); got != 5 {
		t.Errorf("slot not refunded: booked at %d", got)
	}
	// Removing an empty or stale slot is a no-op.
	c.remove(6)
	c.remove(5 + calendarHorizon)
}

func TestCalendarHorizonWrap(t *testing.T) {
	c := newCalendar(1)
	c.add(3)
	// The same ring slot, one horizon later, must start empty.
	later := uint64(3 + calendarHorizon)
	if c.usedAt(later) != 0 {
		t.Error("stale usage leaked across the horizon")
	}
	if got := c.earliest(later); got != later {
		t.Errorf("booked at %d, want %d", got, later)
	}
}

func TestEarliest2NeedsBothResources(t *testing.T) {
	a := newCalendar(1)
	b := newCalendar(1)
	a.add(10)
	b.add(11)
	// Cycle 10 blocked in a, 11 blocked in b: first joint slot is 12.
	if got := earliest2(a, b, 10); got != 12 {
		t.Errorf("joint booking at %d, want 12", got)
	}
}

// straightLine builds a program of n independent ALU instructions ending
// in the halt idiom.
func straightLine(n int) *program.Program {
	b := program.NewBuilder("line")
	b.Label("entry")
	for i := 0; i < n; i++ {
		b.Emit(isa.Inst{Op: isa.OpAddi, Dst: isa.Reg(4 + i%32), Src1: isa.RZero, Imm: isa.Word(i)})
	}
	b.Label("halt")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "halt")
	return b.Finish()
}

func TestIndependentALUIPCApproachesFetchWidth(t *testing.T) {
	p := straightLine(50_000)
	cfg := DefaultConfig()
	cfg.Mode = ModeBaseline
	cfg.MaxInsts = 50_000
	r := Run(p, cfg)
	// Independent single-cycle ops on a 16-wide machine with 16 FUs:
	// IPC should approach min(FetchWidth, FUs) = 16.
	if r.IPC() < 12 {
		t.Errorf("independent ALU IPC %.2f, want near 16", r.IPC())
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	b := program.NewBuilder("chain")
	b.Label("entry")
	for i := 0; i < 20_000; i++ {
		b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 4, Src1: 4, Imm: 1})
	}
	b.Label("halt")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "halt")
	p := b.Finish()

	cfg := DefaultConfig()
	cfg.Mode = ModeBaseline
	cfg.MaxInsts = 20_000
	r := Run(p, cfg)
	if r.IPC() > 1.2 || r.IPC() < 0.8 {
		t.Errorf("serial-chain IPC %.2f, want ~1", r.IPC())
	}
}

func TestRetireBandwidthBoundsIPC(t *testing.T) {
	p := straightLine(30_000)
	cfg := DefaultConfig()
	cfg.Mode = ModeBaseline
	cfg.MaxInsts = 30_000
	cfg.RetireWidth = 4
	r := Run(p, cfg)
	if r.IPC() > 4.05 {
		t.Errorf("IPC %.2f exceeds retire width 4", r.IPC())
	}
}

func TestBranchBandwidthBoundsFetch(t *testing.T) {
	// A program that is almost all (never-taken) branches can fetch at
	// most BranchesPerCycle of them per cycle.
	b := program.NewBuilder("branchy")
	b.Label("entry")
	b.Label("next")
	for i := 0; i < 20_000; i++ {
		b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: isa.RZero}, "next")
	}
	b.Label("halt")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "halt")
	p := b.Finish()

	cfg := DefaultConfig()
	cfg.Mode = ModeBaseline
	cfg.MaxInsts = 20_000
	r := Run(p, cfg)
	if r.IPC() > float64(cfg.BranchesPerCycle)+0.1 {
		t.Errorf("all-branch IPC %.2f exceeds branch bandwidth %d",
			r.IPC(), cfg.BranchesPerCycle)
	}
}

func TestWithDefaultsFillsEverything(t *testing.T) {
	c := Config{}.Canonical()
	d := DefaultConfig()
	if c.N != d.N || c.FetchWidth != d.FetchWidth || c.WindowSize != d.WindowSize ||
		c.PCacheEntries != d.PCacheEntries || c.Microcontexts != d.Microcontexts ||
		c.ThrottleWindow != d.ThrottleWindow || c.MaxInsts != d.MaxInsts {
		t.Errorf("Canonical incomplete: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{FetchWidth: 4, MaxInsts: 7}.Canonical()
	if c2.FetchWidth != 4 || c2.MaxInsts != 7 {
		t.Error("Canonical clobbered explicit values")
	}
}

// TestSparsePathCacheConfigKeepsFields is the regression test for sparse
// sub-configs: a PathCache that sets only TrainInterval keeps it, with
// the other fields defaulted, so the run equals the default config with
// that interval.
func TestSparsePathCacheConfigKeepsFields(t *testing.T) {
	p, _ := synth.ProfileByName("gcc")
	prog := synth.Generate(p)
	sparse := DefaultConfig()
	sparse.MaxInsts = 200_000
	sparse.PathCache = pathcache.Config{TrainInterval: 8}
	full := DefaultConfig()
	full.MaxInsts = 200_000
	full.PathCache.TrainInterval = 8

	if got := sparse.Canonical().PathCache; got != full.PathCache {
		t.Fatalf("Canonical PathCache = %+v, want %+v", got, full.PathCache)
	}
	rs, rf := Run(prog, sparse), Run(prog, full)
	if rs.Cycles != rf.Cycles || rs.PathCache != rf.PathCache {
		t.Errorf("sparse PathCache ran %d cycles, %+v; want %d cycles, %+v",
			rs.Cycles, rs.PathCache, rf.Cycles, rf.PathCache)
	}
}

func TestDemotionRemovesRoutines(t *testing.T) {
	// A branch that is hard for a while and then becomes trivially easy
	// should be promoted and later demoted, removing its routine.
	p, _ := synth.ProfileByName("comp")
	prog := synth.Generate(p)
	cfg := DefaultConfig()
	cfg.MaxInsts = 400_000
	cfg.PathCache.TrainInterval = 16
	r := Run(prog, cfg)
	if r.PathCache.Demotions == 0 {
		t.Skip("no demotions in this window; nothing to verify")
	}
	// Demotions must be accompanied by MicroRAM removals.
	if r.PathCache.Demotions > 0 && r.Build.Builds == 0 {
		t.Error("demotions without any builds")
	}
}

func TestPerfectPromotedHonoursMicroRAMCap(t *testing.T) {
	p, _ := synth.ProfileByName("gcc")
	prog := synth.Generate(p)
	cfg := DefaultConfig()
	cfg.Mode = ModePerfectPromoted
	cfg.MaxInsts = 300_000
	cfg.MicroRAMEntries = 4 // tiny cap
	r := Run(prog, cfg)
	if r.PathCache.Promotions > 400 {
		t.Errorf("promotions %d look unbounded despite cap 4 (demotion churn only)",
			r.PathCache.Promotions)
	}
	base := cfg
	base.Mode = ModeBaseline
	rb := Run(prog, base)
	big := cfg
	big.MicroRAMEntries = 8 << 10
	rbig := Run(prog, big)
	if rbig.Speedup(rb) < r.Speedup(rb)-0.001 {
		t.Errorf("larger MicroRAM cap should not hurt potential: %.3f vs %.3f",
			rbig.Speedup(rb), r.Speedup(rb))
	}
}

func TestICacheMissesSlowFetch(t *testing.T) {
	// A tiny L1I with a large code footprint (gcc_2k's many kernels)
	// must cost cycles versus a big one.
	p, _ := synth.ProfileByName("gcc_2k")
	prog := synth.Generate(p)
	big := DefaultConfig()
	big.Mode = ModeBaseline
	big.MaxInsts = 150_000
	rbig := Run(prog, big)
	small := big
	small.L1IWords = 64
	small.L1IWays = 1
	rsmall := Run(prog, small)
	if rsmall.IPC() >= rbig.IPC() {
		t.Errorf("tiny L1I did not hurt: %.3f vs %.3f", rsmall.IPC(), rbig.IPC())
	}
}

func TestAbortDisabledKeepsContextsBusy(t *testing.T) {
	p, _ := synth.ProfileByName("go")
	prog := synth.Generate(p)
	on := DefaultConfig()
	on.MaxInsts = 200_000
	ron := Run(prog, on)
	off := on
	off.AbortEnabled = false
	roff := Run(prog, off)
	if roff.Micro.AbortedActive != 0 {
		t.Errorf("aborts happened with AbortEnabled=false: %d", roff.Micro.AbortedActive)
	}
	// Without the Path_History screen and in-flight aborts, every spawn
	// (including off-path ones) runs to its target sequence number, so
	// completions rise and useless microthread traffic grows.
	if roff.Micro.Completed <= ron.Micro.Completed {
		t.Errorf("no-abort run should complete more spawns: %d vs %d",
			roff.Micro.Completed, ron.Micro.Completed)
	}
	if roff.Micro.MicroInsts <= ron.Micro.MicroInsts {
		t.Errorf("no-abort run should inject at least as much traffic: %d vs %d",
			roff.Micro.MicroInsts, ron.Micro.MicroInsts)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Insts: 100, Cycles: 50, Branches: 10, Mispredicts: 2}
	if r.IPC() != 2 {
		t.Errorf("IPC = %f", r.IPC())
	}
	if r.MispredictRate() != 0.2 {
		t.Errorf("MispredictRate = %f", r.MispredictRate())
	}
	var zero Result
	if zero.IPC() != 0 || zero.MispredictRate() != 0 {
		t.Error("zero result helpers should return 0")
	}
	base := &Result{Insts: 100, Cycles: 100}
	if r.Speedup(base) != 2 {
		t.Errorf("Speedup = %f", r.Speedup(base))
	}
	if r.Speedup(&Result{}) != 0 {
		t.Error("Speedup vs zero baseline should be 0")
	}
	if max64(3, 5) != 5 || max64(5, 3) != 5 {
		t.Error("max64 wrong")
	}
}
