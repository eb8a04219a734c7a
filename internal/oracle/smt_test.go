package oracle

import (
	"context"
	"strings"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/obs"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

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
func verifySMTSpecs(a, b synth.RandSpec, cfg cpu.Config, opts Options) error {
	progs := []*program.Program{synth.RandomProgram(a), synth.RandomProgram(b)}
	return VerifySMT(progs, cfg, opts)
}

// smtSmokeCfg sweeps the sharing/policy matrix deterministically: the
// seed picks fetch policy and sharing bits so the 32-seed suite covers
// every sharing flag under both arbiters.
func smtSmokeCfg(seed int64) cpu.Config {
	cfg := Ablations()[1].Config // full microthread mechanism
	cfg.SMT = smtConfigFromBits(uint64(seed)%31 + 1)
	return cfg
}

// TestOracleSMTSmoke is the SMT arm of the deterministic suite: pairs of
// seeded random programs co-scheduled under a rotating sharing/policy
// matrix must each retire their solo reference stream bit for bit, end
// in their reference architectural state, and satisfy every SMT
// conservation law and trace reconciliation.
func TestOracleSMTSmoke(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		a := synth.RandSpec{Seed: seed, Units: 5}
		b := synth.RandSpec{Seed: seed + 1000, Units: 5}
		if err := verifySMTSpecs(a, b, smtSmokeCfg(seed), Options{MaxInsts: 8_000, Trace: true}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestOracleSMTOneContextBridge drives VerifySMT's built-in bridge law:
// a 1-context SMT run of a fixed-profile program must be bit-identical
// to the solo machine (checked inside VerifySMT when k == 1).
func TestOracleSMTOneContextBridge(t *testing.T) {
	for _, policy := range []cpu.FetchPolicy{cpu.FetchRoundRobin, cpu.FetchICount} {
		cfg := Ablations()[1].Config
		cfg.SMT = cpu.SMTConfig{
			Contexts:    []cpu.WorkloadRef{{Bench: "gcc"}},
			FetchPolicy: policy,
		}
		p, err := synth.ProfileByName("gcc")
		if err != nil {
			t.Fatal(err)
		}
		progs := []*program.Program{synth.Generate(p)}
		if err := VerifySMT(progs, cfg, Options{MaxInsts: 12_000}); err != nil {
			t.Errorf("%v: %v", policy, err)
		}
	}
}

// TestSMTTraceCountsSpawnDrops keeps the reconciler's two spawn-drop
// pairs live. The seed suites and the gcc trace test never run out of
// microcontexts, so they would miss a lost spawn_drop_no_context or
// spawn_drop_co_runner emit. Two gcc contexts sharing a two-microcontext
// budget both drop and deny spawns, and the merged trace must count each
// exactly.
func TestSMTTraceCountsSpawnDrops(t *testing.T) {
	p, err := synth.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := synth.Generate(p)
	cfg := Ablations()[1].Config
	cfg.Microcontexts = 2
	cfg.SMT = cpu.SMTConfig{Contexts: []cpu.WorkloadRef{{Bench: "gcc"}, {Bench: "gcc"}}}
	cfg.MaxInsts = 50_000
	tr := obs.NewTracer()
	tr.SetLimit(1) // counters only
	cfg.Obs = tr
	res, err := cpu.RunSMT(context.Background(), []*program.Program{prog, prog}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var drops, denials uint64
	for _, c := range res.Contexts {
		drops += c.Micro.NoContextDrops
		denials += c.Micro.CoRunnerDenied
	}
	if drops == 0 || denials == 0 {
		t.Fatalf("no-context drops %d, co-runner denials %d: the drop pairs are not exercised", drops, denials)
	}
	if err := CheckSMTTrace(tr, res); err != nil {
		t.Error(err)
	}
}

// TestVerifySMTDetectsInjectedFault is the SMT mutation test: a flipped
// Taken bit in one context's stream must surface as a stream divergence
// attributed to that context, and the shrinker must reduce the failing
// pair to a minimal one — each context's spec shrunk while holding the
// other fixed.
func TestVerifySMTDetectsInjectedFault(t *testing.T) {
	cfg := Ablations()[1].Config
	cfg.SMT = smtConfigFromBits(30) // rr, everything shared: the worst case
	opts := Options{MaxInsts: 8_000, Fault: &Fault{Ctx: 1, Seq: 3_000}}
	a := synth.RandSpec{Seed: 7, Units: 6}
	b := synth.RandSpec{Seed: 8, Units: 6}

	err := verifySMTSpecs(a, b, cfg, opts)
	div, ok := err.(*Divergence)
	if !ok || div.Kind != "stream" || div.Seq != 3_000 {
		t.Fatalf("expected a stream divergence at seq 3000, got %v", err)
	}
	if !strings.Contains(div.Config, "ctx1") {
		t.Errorf("divergence not attributed to the faulted context: %v", div)
	}
	if !strings.Contains(div.Detail, "taken") {
		t.Errorf("divergence does not name the corrupted field: %v", div)
	}

	// Shrink the pair: first the faulted context's program, then the
	// co-runner's, each holding the other fixed.
	shrunkB := Shrink(b, func(s synth.RandSpec) bool {
		return verifySMTSpecs(a, s, cfg, opts) != nil
	})
	shrunkA := Shrink(a, func(s synth.RandSpec) bool {
		return verifySMTSpecs(s, shrunkB, cfg, opts) != nil
	})
	if verifySMTSpecs(shrunkA, shrunkB, cfg, opts) == nil {
		t.Fatal("shrunk context pair no longer fails")
	}
	if shrunkA.IncludedUnits() > a.IncludedUnits() || shrunkB.IncludedUnits() > b.IncludedUnits() {
		t.Fatalf("shrinking grew the pair: %v + %v", shrunkA, shrunkB)
	}
	// The fault fires on any ctx-1 program long enough to reach seq
	// 3000, and the co-runner is architecturally irrelevant, so both
	// sides must lose at least one unit.
	if shrunkA.IncludedUnits() == a.IncludedUnits() && shrunkB.IncludedUnits() == b.IncludedUnits() {
		t.Fatalf("shrinking removed nothing from either context: %v + %v", shrunkA, shrunkB)
	}
}

// TestCheckSMTStatsCatchesCorruption corrupts one counter of a real SMT
// run per conservation law and expects the checker to object to each —
// the proof the SMT wall is load-bearing, not decorative.
func TestCheckSMTStatsCatchesCorruption(t *testing.T) {
	cfg := Ablations()[1].Config
	cfg.SMT = smtConfigFromBits(6) // rr, shared path cache + shared pcache
	cfg.MaxInsts = 12_000
	progs := []*program.Program{
		synth.RandomProgram(synth.RandSpec{Seed: 11, Units: 6}),
		synth.RandomProgram(synth.RandSpec{Seed: 12, Units: 6}),
	}
	res, err := cpu.RunSMT(context.Background(), progs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	canon := cfg.Canonical()
	canon.MaxInsts = cfg.MaxInsts
	if cerr := CheckSMTStats(res, canon); cerr != nil {
		t.Fatalf("clean SMT run fails stats check: %v", cerr)
	}

	mutations := []struct {
		name string
		mut  func(*cpu.SMTResult)
	}{
		{"spawn conservation with denial term", func(r *cpu.SMTResult) { r.Contexts[0].Micro.CoRunnerDenied++ }},
		{"machine-wide inflight budget", func(r *cpu.SMTResult) { r.Contexts[1].Micro.Spawned += 1000 }},
		{"shared path-cache copies identical", func(r *cpu.SMTResult) { r.Contexts[1].PathCache.Hits++ }},
		{"shared pcache delivery sum", func(r *cpu.SMTResult) { r.Contexts[0].Micro.Useless++ }},
		{"occupancy within capacity", func(r *cpu.SMTResult) { r.PathCacheOccupancy = r.PathCacheCapacity + 1 }},
		{"capacity recorded", func(r *cpu.SMTResult) { r.PathCacheOccupancy, r.PathCacheCapacity = 0, 0 }},
		{"machine span is max context span", func(r *cpu.SMTResult) { r.Cycles++ }},
		{"sharing flags copied", func(r *cpu.SMTResult) { r.SharedPathCache = false }},
		{"per-context stream totals", func(r *cpu.SMTResult) { r.Contexts[0].Branches = r.Contexts[0].Insts + 1 }},
		{"per-context mispredict bound", func(r *cpu.SMTResult) { r.Contexts[1].Mispredicts = r.Contexts[1].Branches + 1 }},
		{"per-context rebuild bound", func(r *cpu.SMTResult) { r.Contexts[1].Micro.Rebuilds = r.Contexts[1].Build.Builds + 1 }},
		{"per-context routine sizes", func(r *cpu.SMTResult) { r.Contexts[1].Build.Builds = r.Contexts[1].Build.SizeSum + 1 }},
	}
	for _, m := range mutations {
		bad := *res
		bad.Contexts = make([]*cpu.Result, len(res.Contexts))
		for i, c := range res.Contexts {
			cc := *c
			bad.Contexts[i] = &cc
		}
		m.mut(&bad)
		if cerr := CheckSMTStats(&bad, canon); cerr == nil {
			t.Errorf("%s: corruption not detected", m.name)
		}
	}
}

// TestCheckSMTStatsSoloDenialPurity pins the CoRunnerDenied purity law
// both ways: a 1-context SMT result must report zero denials, and the
// solo CheckStats must reject a nonzero denial count outside SMT.
func TestCheckSMTStatsSoloDenialPurity(t *testing.T) {
	cfg := Ablations()[1].Config
	cfg.MaxInsts = 8_000
	res := cpu.Run(synth.Random(3, 5), cfg)
	canon := cfg.Canonical()
	canon.MaxInsts = cfg.MaxInsts
	if err := CheckStats(res, canon); err != nil {
		t.Fatalf("clean solo run fails: %v", err)
	}
	bad := *res
	bad.Micro.CoRunnerDenied++
	bad.Micro.AttemptedSpawns++ // keep the sum law satisfied; purity must still object
	if err := CheckStats(&bad, canon); err == nil {
		t.Error("solo run with co-runner denials accepted")
	}
}
