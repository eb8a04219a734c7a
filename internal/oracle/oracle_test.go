package oracle

import (
	"os"
	"strings"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/obs"
	"dpbp/internal/synth"
)

// smokeOpts is the deterministic suite's budget: small enough that 64
// seeds x 5 ablations stay fast, large enough that promotions, spawns,
// deliveries, aborts, and evictions all occur across the seed set.
func smokeOpts() Options {
	return Options{MaxInsts: 12_000, Trace: true}
}

// TestOracleSmoke is the deterministic 64-seed differential suite: every
// seeded random program must retire identical architectural streams and
// final state under the emulator and every timing-core ablation, with
// all stats-algebra invariants and trace reconciliations holding.
func TestOracleSmoke(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		prog := synth.Random(seed, 6)
		if err := Verify(prog, smokeOpts()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestOracleCoversMicroActivity guards the suite against vacuity: across
// the smoke seeds the microthread machinery must actually fire — spawns,
// prediction deliveries, and Path Cache promotions all nonzero — or the
// inertness checks would be checking an idle mechanism.
func TestOracleCoversMicroActivity(t *testing.T) {
	var spawns, hits, promos uint64
	cfg := Ablations()[1].Config // full microthread mechanism
	cfg.MaxInsts = 12_000
	for seed := int64(1); seed <= 16; seed++ {
		res := cpu.Run(synth.Random(seed, 6), cfg)
		spawns += res.Micro.Spawned
		hits += res.PCache.Hits
		promos += res.PathCache.Promotions
	}
	if spawns == 0 || hits == 0 || promos == 0 {
		t.Fatalf("smoke workload exercises no microthread activity: spawns=%d deliveries=%d promotions=%d",
			spawns, hits, promos)
	}
}

// TestTracerReconcilesWithStats pins the observability layer's core
// contract on a paper workload: every per-kind event counter of a traced
// gcc run equals the statistic its emit site sits next to (CheckTrace).
// A drifting pair means an emit site and its counter were separated by a
// refactor.
func TestTracerReconcilesWithStats(t *testing.T) {
	p, err := synth.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInsts = 200_000
	tr := obs.NewTracer()
	cfg.Obs = tr
	res := cpu.Run(synth.Generate(p), cfg)
	if res.Micro.Spawned == 0 || res.Micro.AttemptedSpawns == 0 {
		t.Fatal("benchmark produced no microthread activity; reconciliation vacuous")
	}
	if err := CheckTrace(tr, res); err != nil {
		t.Error(err)
	}
}

// TestFixedKernelsVerify runs a few of the paper-profile programs (not
// just random ones) through the oracle, so the fixed kernels are covered
// by the same differential checks.
func TestFixedKernelsVerify(t *testing.T) {
	for _, name := range []string{"comp", "li", "mcf_2k"} {
		p, err := synth.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(synth.Generate(p), smokeOpts()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestVerifyDetectsInjectedFault proves the harness detects a stream
// corruption and shrinks it to a minimal repro: a flipped Taken bit at
// one sequence number must surface as a stream divergence, survive
// shrinking, and round-trip through the repro files.
func TestVerifyDetectsInjectedFault(t *testing.T) {
	spec := synth.RandSpec{Seed: 7, Units: 6}
	opts := smokeOpts()
	opts.Fault = &Fault{Config: "micro", Seq: 5_000}

	failing := func(s synth.RandSpec) bool {
		return Verify(synth.RandomProgram(s), opts) != nil
	}
	if !failing(spec) {
		t.Fatal("injected fault not detected")
	}
	err := Verify(synth.RandomProgram(spec), opts)
	div, ok := err.(*Divergence)
	if !ok || div.Kind != "stream" || div.Seq != 5_000 {
		t.Fatalf("expected a stream divergence at seq 5000, got %v", err)
	}
	if !strings.Contains(div.Detail, "taken") {
		t.Errorf("divergence does not name the corrupted field: %v", div)
	}

	shrunk := Shrink(spec, failing)
	if !failing(shrunk) {
		t.Fatal("shrunk spec no longer fails")
	}
	if shrunk.IncludedUnits() > spec.IncludedUnits() {
		t.Fatalf("shrinking grew the spec: %v -> %v", spec, shrunk)
	}
	// The fault triggers on any program long enough to reach seq 5000,
	// so greedy removal must strip at least one unit.
	if shrunk.IncludedUnits() == spec.IncludedUnits() {
		t.Fatalf("shrinking removed nothing: %v", shrunk)
	}

	dir := t.TempDir()
	repro := Repro{Seed: shrunk.Seed, Units: shrunk.Units, Omit: shrunk.Omit,
		MaxInsts: opts.MaxInsts, Error: err.Error()}
	path, werr := WriteRepro(dir, repro)
	if werr != nil {
		t.Fatal(werr)
	}
	loaded, lerr := LoadRepro(path)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if loaded.Spec().String() != shrunk.String() {
		t.Fatalf("repro round-trip changed the spec: %v vs %v", loaded.Spec(), shrunk)
	}
	if !failing(loaded.Spec()) {
		t.Fatal("reloaded repro no longer fails")
	}
}

// TestFaultInAllConfigs checks the "" (every config) fault scope and
// that the failing config is named in the divergence.
func TestFaultInAllConfigs(t *testing.T) {
	opts := smokeOpts()
	opts.Fault = &Fault{Seq: 100}
	err := Verify(synth.Random(3, 4), opts)
	div, ok := err.(*Divergence)
	if !ok {
		t.Fatalf("expected divergence, got %v", err)
	}
	if div.Config != "baseline" {
		t.Errorf("first corrupted config should be baseline, got %q", div.Config)
	}
}

// TestCheckStatsCatchesCorruption corrupts one counter of a real run per
// relation and expects the algebra checker to object to each.
func TestCheckStatsCatchesCorruption(t *testing.T) {
	cfg := Ablations()[1].Config
	cfg.MaxInsts = 12_000
	res := cpu.Run(synth.Random(11, 6), cfg)
	canon := cfg.Canonical()
	canon.MaxInsts = cfg.MaxInsts
	if err := CheckStats(res, canon); err != nil {
		t.Fatalf("clean run fails stats check: %v", err)
	}

	mutations := []struct {
		name string
		mut  func(*cpu.Result)
	}{
		{"spawn conservation", func(r *cpu.Result) { r.Micro.Spawned++ }},
		{"delivery classification", func(r *cpu.Result) { r.Micro.Useless++ }},
		{"used-prediction split", func(r *cpu.Result) { r.Micro.CorrectUsed++ }},
		{"pcache probes", func(r *cpu.Result) { r.PCache.Misses++ }},
		{"pathcache allocation split", func(r *cpu.Result) { r.PathCache.AllocsAvoided++ }},
		{"promotion balance", func(r *cpu.Result) { r.PathCache.Demotions = r.PathCache.Promotions + 1 }},
		{"mispredict bound", func(r *cpu.Result) { r.Mispredicts = r.Branches + 1 }},
		{"backend predict/update pairing", func(r *cpu.Result) { r.Backend.Hybrid.Updates++ }},
		{"backend selection split", func(r *cpu.Result) { r.Backend.Hybrid.GshareSelected++ }},
		{"backend correctness", func(r *cpu.Result) { r.Backend.Hybrid.Correct++ }},
		{"inactive backend purity", func(r *cpu.Result) { r.Backend.TAGE.Lookups++ }},
		{"gate skip bound", func(r *cpu.Result) { r.Micro.H2PGateSkips = r.PathCache.PromotionsRejected + 1 }},
	}
	for _, m := range mutations {
		bad := *res
		m.mut(&bad)
		if err := CheckStats(&bad, canon); err == nil {
			t.Errorf("%s: corruption not detected", m.name)
		}
	}
}

// TestShrinkKeepsOneUnit pins the shrinker's floor: a predicate that
// always fails must not shrink below a single unit.
func TestShrinkKeepsOneUnit(t *testing.T) {
	spec := synth.RandSpec{Seed: 1, Units: 5}
	got := Shrink(spec, func(synth.RandSpec) bool { return true })
	if got.IncludedUnits() != 1 {
		t.Fatalf("expected 1 unit left, got %d (%v)", got.IncludedUnits(), got)
	}
}

// TestLoadReproRejectsGarbage covers the error paths of LoadRepro.
func TestLoadReproRejectsGarbage(t *testing.T) {
	if _, err := LoadRepro(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
	p := t.TempDir() + "/bad.json"
	if err := writeFile(p, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(p); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := writeFile(p, "{}"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(p); err == nil {
		t.Error("unit-less repro accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
