package cpu

import (
	"context"
	"reflect"
	"testing"

	"dpbp/internal/isa"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

func benchProg(t *testing.T, name string) *program.Program {
	t.Helper()
	p, err := synth.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return synth.Generate(p)
}

func smtConfig(k int, policy FetchPolicy, mut func(*Config)) Config {
	cfg := DefaultConfig()
	cfg.MaxInsts = 60_000
	refs := make([]WorkloadRef, k)
	for i := range refs {
		refs[i] = WorkloadRef{Bench: "test"}
	}
	cfg.SMT = SMTConfig{Contexts: refs, FetchPolicy: policy}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// TestSMTOneContextMatchesSolo is the acceptance bridge between the two
// machines: a 1-context SMT run, under either fetch policy and with or
// without the sharing flags (self-sharing is sharing with nobody), must
// be DeepEqual to the plain single-thread run of the same workload.
func TestSMTOneContextMatchesSolo(t *testing.T) {
	prog := benchProg(t, "gcc")
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"rr-private", nil},
		{"icount-private", func(c *Config) { c.SMT.FetchPolicy = FetchICount }},
		{"rr-all-shared", func(c *Config) {
			c.SMT.SharedPathCache = true
			c.SMT.SharedPCache = true
			c.SMT.SharedMicroRAM = true
			c.SMT.SharedPredictor = true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smtConfig(1, FetchRoundRobin, tc.mut)
			solo := cfg
			solo.SMT = SMTConfig{}
			want := Run(prog, solo)
			got, err := RunSMT(context.Background(), []*program.Program{prog}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Contexts) != 1 {
				t.Fatalf("%d contexts", len(got.Contexts))
			}
			if !reflect.DeepEqual(want, got.Contexts[0]) {
				t.Errorf("1-context SMT diverged from solo\nsolo: %+v\nsmt:  %+v",
					want, got.Contexts[0])
			}
			if got.Cycles != want.Cycles {
				t.Errorf("Cycles = %d, want %d", got.Cycles, want.Cycles)
			}
		})
	}
}

func TestSMTRunValidation(t *testing.T) {
	prog := benchProg(t, "comp")
	if _, err := RunSMT(context.Background(), []*program.Program{prog}, DefaultConfig()); err == nil {
		t.Error("zero SMTConfig accepted")
	}
	cfg := smtConfig(2, FetchRoundRobin, nil)
	if _, err := RunSMT(context.Background(), []*program.Program{prog}, cfg); err == nil {
		t.Error("1 program for 2 contexts accepted")
	}
}

// loopProgram hand-builds a branchy counting loop of a given trip count:
// the two-context arbiter tests need workloads whose dynamic length and
// branch pattern are exactly known.
func loopProgram(name string, trips isa.Word) *program.Program {
	b := program.NewBuilder(name)
	b.Label("entry")
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 4, Imm: trips})
	b.Label("loop")
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 5, Src1: 5, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: 6, Src1: 5, Imm: 3})
	b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: 6}, "skip")
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 7, Src1: 7, Imm: 2})
	b.Label("skip")
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 4, Src1: 4, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: 4}, "loop")
	b.Label("halt")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "halt")
	return b.Finish()
}

// TestFetchArbiterFairness table-tests both policies on two identical
// hand-built loops: with symmetric workloads neither context may starve,
// and both must retire their full budget with closely matched spans.
func TestFetchArbiterFairness(t *testing.T) {
	for _, policy := range []FetchPolicy{FetchRoundRobin, FetchICount} {
		t.Run(policy.String(), func(t *testing.T) {
			progs := []*program.Program{
				loopProgram("loop-a", 1_000_000),
				loopProgram("loop-b", 1_000_000),
			}
			cfg := smtConfig(2, policy, func(c *Config) {
				c.Mode = ModeBaseline
				c.MaxInsts = 30_000
			})
			res, err := RunSMT(context.Background(), progs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, b := res.Contexts[0], res.Contexts[1]
			if a.Insts != cfg.MaxInsts || b.Insts != cfg.MaxInsts {
				t.Fatalf("starved context: insts %d vs %d (budget %d)",
					a.Insts, b.Insts, cfg.MaxInsts)
			}
			// Identical workloads, symmetric arbitration: spans must agree
			// within a small skew (the lattice offsets phases by < K
			// cycles; icount ties break by index).
			lo, hi := a.Cycles, b.Cycles
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi-lo > hi/10 {
				t.Errorf("unfair spans: %d vs %d cycles", a.Cycles, b.Cycles)
			}
			if res.Cycles != hi {
				t.Errorf("SMT Cycles %d != max context span %d", res.Cycles, hi)
			}
		})
	}
}

// TestFetchArbiterStarvationFreedom pits a short loop against a long
// one: after the short thread halts, the long thread must still make
// progress to its full budget under both policies.
func TestFetchArbiterStarvationFreedom(t *testing.T) {
	for _, policy := range []FetchPolicy{FetchRoundRobin, FetchICount} {
		t.Run(policy.String(), func(t *testing.T) {
			progs := []*program.Program{
				loopProgram("short", 100),
				loopProgram("long", 1_000_000),
			}
			cfg := smtConfig(2, policy, func(c *Config) {
				c.Mode = ModeBaseline
				c.MaxInsts = 20_000
			})
			res, err := RunSMT(context.Background(), progs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			short, long := res.Contexts[0], res.Contexts[1]
			if short.Insts >= cfg.MaxInsts {
				t.Fatalf("short loop did not halt: %d insts", short.Insts)
			}
			if long.Insts != cfg.MaxInsts {
				t.Errorf("long thread starved after co-runner halt: %d/%d insts",
					long.Insts, cfg.MaxInsts)
			}
		})
	}
}

// TestRoundRobinLatticePartitionsFetch checks the slot lattice directly:
// under round-robin with K contexts, every fetch cycle a thread uses is
// ≡ its phase (mod K), so two co-runners' spans interleave rather than
// collapse onto the same cycles.
func TestRoundRobinLatticePartitionsFetch(t *testing.T) {
	progs := []*program.Program{
		loopProgram("a", 1_000_000),
		loopProgram("b", 1_000_000),
	}
	cfg := smtConfig(2, FetchRoundRobin, func(c *Config) {
		c.Mode = ModeBaseline
		c.MaxInsts = 10_000
	})
	s := NewSMTMachine()
	res, err := s.RunContext(context.Background(), progs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m := s.Context(i)
		if m.fcStride != 2 || m.fcPhase != uint64(i) {
			t.Fatalf("ctx %d lattice = (%d, %d)", i, m.fcStride, m.fcPhase)
		}
		if m.fc%2 != uint64(i) {
			t.Errorf("ctx %d front-end clock %d off its lattice", i, m.fc)
		}
	}
	// Two threads sharing fetch 1:2 must each run slower than solo.
	soloCfg := cfg
	soloCfg.SMT = SMTConfig{}
	solo := Run(progs[0], soloCfg)
	if res.Contexts[0].Cycles <= solo.Cycles {
		t.Errorf("co-run span %d not above solo span %d", res.Contexts[0].Cycles, solo.Cycles)
	}
}

// TestSMTCoRunnerDenials drives two spawn-heavy threads into a
// one-microcontext machine-wide budget: whenever one thread's
// microthread is in flight, the other thread's spawn attempts must be
// denied on the shared budget (its own slot is free), landing in
// CoRunnerDenied — and the spawn algebra must stay exact per context.
func TestSMTCoRunnerDenials(t *testing.T) {
	prog := benchProg(t, "gcc")
	cfg := smtConfig(2, FetchRoundRobin, func(c *Config) {
		c.Microcontexts = 1
		c.MaxInsts = 120_000
		c.SMT.SharedMicroRAM = true
	})
	res, err := RunSMT(context.Background(), []*program.Program{prog, prog}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var denied, spawned uint64
	for i, c := range res.Contexts {
		ms := &c.Micro
		if got := ms.PrefixMismatchDrops + ms.NoContextDrops + ms.CoRunnerDenied + ms.Spawned; got != ms.AttemptedSpawns {
			t.Errorf("ctx %d spawn algebra broken: %d parts vs %d attempts", i, got, ms.AttemptedSpawns)
		}
		denied += ms.CoRunnerDenied
		spawned += ms.Spawned
	}
	if spawned == 0 {
		t.Skip("no spawns on this workload/budget; denial path unreachable")
	}
	if denied == 0 {
		t.Error("two contended threads on a 1-slot budget produced no co-runner denials")
	}
}

// TestSMTSharedMicroRAMHonoursBuildLatency: a routine one context builds
// into a shared MicroRAM is unspawnable for every context, not only its
// builder, until the Microthread Builder finishes it (Section 4.2.2).
// Under a build latency longer than any run, no context may even attempt
// a spawn. Two copies of one program share every path ID, so each
// context fetches the spawn points of the routines its co-runner builds.
func TestSMTSharedMicroRAMHonoursBuildLatency(t *testing.T) {
	prog := benchProg(t, "gcc")
	cfg := smtConfig(2, FetchRoundRobin, func(c *Config) {
		c.BuildLatency = 1 << 40
		c.MaxInsts = 200_000
		c.SMT.SharedMicroRAM = true
	})
	res, err := RunSMT(context.Background(), []*program.Program{prog, prog}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var builds uint64
	for i, c := range res.Contexts {
		builds += c.Build.Builds
		if c.Micro.AttemptedSpawns != 0 {
			t.Errorf("ctx %d made %d spawn attempts on routines still being built", i, c.Micro.AttemptedSpawns)
		}
	}
	if builds == 0 {
		t.Fatal("vacuous: no routine was built")
	}
}

// TestSMTSharedStructuresReportMachineWideStats: under sharing, every
// context's Result carries the same (combined) copy of the shared
// structure's statistics, and the Path Cache occupancy law holds.
func TestSMTSharedStructures(t *testing.T) {
	prog := benchProg(t, "gcc")
	cfg := smtConfig(2, FetchRoundRobin, func(c *Config) {
		c.MaxInsts = 80_000
		c.SMT.SharedPathCache = true
		c.SMT.SharedPredictor = true
	})
	res, err := RunSMT(context.Background(), []*program.Program{prog, prog}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SharedPathCache || !res.SharedPredictor || res.SharedPCache || res.SharedMicroRAM {
		t.Fatalf("sharing flags not copied: %+v", res)
	}
	a, b := res.Contexts[0], res.Contexts[1]
	if a.PathCache != b.PathCache {
		t.Errorf("shared Path Cache stats diverge between contexts:\n%+v\n%+v", a.PathCache, b.PathCache)
	}
	if a.PredStats != b.PredStats {
		t.Errorf("shared predictor stats diverge between contexts")
	}
	if res.PathCacheOccupancy > res.PathCacheCapacity {
		t.Errorf("occupancy %d exceeds capacity %d", res.PathCacheOccupancy, res.PathCacheCapacity)
	}
	if res.PathCacheCapacity == 0 {
		t.Error("capacity not recorded")
	}
	if res.IPC() <= 0 {
		t.Error("machine IPC not positive")
	}
}

// TestSMTCancellation: a cancelled SMT run returns partial statistics
// and the context error.
func TestSMTCancellation(t *testing.T) {
	prog := benchProg(t, "gcc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smtConfig(2, FetchRoundRobin, func(c *Config) { c.MaxInsts = 50_000_000 })
	res, err := RunSMT(ctx, []*program.Program{prog, prog}, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Contexts) != 2 {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Contexts[0].Insts >= cfg.MaxInsts {
		t.Error("cancelled run executed the full budget")
	}
}

// TestFetchPolicyVocabulary pins the -smt vocabulary round trip: every
// policy names itself, ParseFetchPolicy inverts String (with "" and
// "round-robin" as documented aliases), and unknown names are rejected.
func TestFetchPolicyVocabulary(t *testing.T) {
	for _, p := range []FetchPolicy{FetchRoundRobin, FetchICount} {
		got, err := ParseFetchPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseFetchPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for in, want := range map[string]FetchPolicy{"": FetchRoundRobin, "round-robin": FetchRoundRobin} {
		if got, err := ParseFetchPolicy(in); err != nil || got != want {
			t.Errorf("ParseFetchPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFetchPolicy("sideways"); err == nil {
		t.Error("unknown policy accepted")
	}
	if got := FetchPolicy(99).String(); got != "unknown" {
		t.Errorf("FetchPolicy(99).String() = %q", got)
	}
}

// TestSMTConfigEnabledAndCanonical pins the config surface the run
// cache and the oracle lean on: Enabled is exactly "has contexts", and
// Canonical folds only the empty-vs-nil slice distinction.
func TestSMTConfigEnabledAndCanonical(t *testing.T) {
	if (SMTConfig{}).Enabled() {
		t.Error("zero SMTConfig reports enabled")
	}
	one := SMTConfig{Contexts: []WorkloadRef{{Bench: "gcc"}}}
	if !one.Enabled() {
		t.Error("1-context SMTConfig reports disabled")
	}
	empty := SMTConfig{Contexts: []WorkloadRef{}, FetchPolicy: FetchICount, SharedPCache: true}
	canon := empty.Canonical()
	if canon.Contexts != nil {
		t.Errorf("Canonical kept the empty slice: %+v", canon)
	}
	if canon.FetchPolicy != FetchICount || !canon.SharedPCache {
		t.Errorf("Canonical dropped fields: %+v", canon)
	}
	if !reflect.DeepEqual(one.Canonical(), one) {
		t.Errorf("Canonical changed a populated config: %+v", one.Canonical())
	}
}
