package oracle

import (
	"reflect"
	"testing"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/runcache"
	"dpbp/internal/synth"
)

// FuzzDifferentialRun is the open-ended form of the smoke suite: any
// (seed, units) pair must generate a program whose architectural
// behaviour is identical under the emulator and every timing ablation.
// The smt dimension, when nonzero, co-schedules a second random program
// as an SMT primary context (fetch policy and sharing flags decoded from
// the bits), hunting for co-runner configurations that leak
// architectural state across contexts. The per-execution budget is small
// so the engine explores many programs per second; the 64-seed
// deterministic suite covers longer runs.
func FuzzDifferentialRun(f *testing.F) {
	f.Add(int64(1), uint64(4), uint64(0))
	f.Add(int64(42), uint64(1), uint64(0))
	f.Add(int64(-7), uint64(8), uint64(0))
	f.Add(int64(1<<40), uint64(3), uint64(0))
	f.Add(int64(5), uint64(4), uint64(1))  // smt: icount, all private
	f.Add(int64(9), uint64(6), uint64(30)) // smt: rr, everything shared
	f.Add(int64(-3), uint64(5), uint64(6)) // smt: rr, shared path+pred caches
	f.Fuzz(func(t *testing.T, seed int64, units uint64, smtBits uint64) {
		spec := synth.RandSpec{Seed: seed, Units: int(1 + units%8)}
		if smtBits%32 != 0 {
			cfg := Ablations()[1].Config // full microthread mechanism
			cfg.SMT = smtConfigFromBits(smtBits % 32)
			co := synth.RandSpec{Seed: seed ^ 0x5bd1e995, Units: int(1 + units%4)}
			if err := verifySMTSpecs(spec, co, cfg, Options{MaxInsts: 6_000, Trace: true}); err != nil {
				t.Fatalf("specs %v+%v smt=%d: %v", spec, co, smtBits%32, err)
			}
			return
		}
		prog := synth.RandomProgram(spec)
		if err := Verify(prog, Options{MaxInsts: 6_000, Trace: true}); err != nil {
			t.Fatalf("spec %v: %v", spec, err)
		}
	})
}

// fuzzCanonProg is the fixed program the canonicalization fuzzer runs;
// built once, since program generation dwarfs the tiny runs.
var fuzzCanonProg = synth.Random(1, 2)

// FuzzConfigCanonical fuzzes configuration canonicalization: Canonical
// must be idempotent, two canonically-equal configurations must produce
// equal run-cache keys, and — the property the run cache's correctness
// rests on — a run under c must be byte-identical to a run under
// c.Canonical(), since both map to the same cache key. The Path Cache
// config is sparse (Entries stays 0), so the properties also cover
// field-by-field defaulting of a sub-config.
func FuzzConfigCanonical(f *testing.F) {
	f.Add(uint64(3), uint64(10), false, false)
	f.Add(uint64(0), uint64(0), true, true)
	f.Add(uint64(2), uint64(513), true, false)
	f.Add(uint64(16), uint64(99), true, true)                   // tage backend
	f.Add(uint64(32), uint64(257), true, true)                  // h2p backend + spawn gate
	f.Add(uint64(3), uint64(0x1800_0000_0000_000a), true, true) // sparse PathCache: interval 8, T=.05
	f.Fuzz(func(t *testing.T, modeBits, geom uint64, usePred, pruning bool) {
		backends := []string{"", bpred.BackendTAGE, bpred.BackendH2P}
		cfg := cpu.Config{
			Mode:           cpu.Mode(modeBits % 4),
			UsePredictions: usePred,
			Pruning:        pruning,
			AbortEnabled:   modeBits&4 != 0,
			Throttle:       modeBits&8 != 0,
			H2PSpawnGate:   modeBits&32 != 0,
			N:              int(geom % 17),         // 0 = default
			WindowSize:     int(geom >> 4 % 700),   // includes non-pow2 sizes
			PCacheEntries:  int(geom >> 12 % 200),  //
			Microcontexts:  int(geom >> 18 % 33),   //
			FetchWidth:     int(geom >> 24 % 20),   //
			MaxInsts:       4_000 + geom>>32%4_000, //
		}
		cfg.BPred = backends[modeBits>>4%uint64(len(backends))]
		cfg.PathCache.TrainInterval = int(geom >> 56 % 16)   // 0 = default
		cfg.PathCache.Threshold = float64(geom>>60%4) * 0.05 //

		canon := cfg.Canonical()
		if again := canon.Canonical(); !reflect.DeepEqual(canon, again) {
			t.Fatalf("Canonical not idempotent:\n%+v\nvs\n%+v", canon, again)
		}
		k1 := runcache.KeyOf("cpu", fuzzCanonProg.Name, cfg.Canonical())
		k2 := runcache.KeyOf("cpu", fuzzCanonProg.Name, canon.Canonical())
		if k1 != k2 {
			t.Fatal("canonically equal configs produced different cache keys")
		}

		raw := cpu.Run(fuzzCanonProg, cfg)
		cooked := cpu.Run(fuzzCanonProg, canon)
		if !reflect.DeepEqual(raw, cooked) {
			t.Fatalf("run(c) != run(c.Canonical()) — the run cache would serve wrong results:\nraw:    %+v\ncooked: %+v",
				raw, cooked)
		}
	})
}
