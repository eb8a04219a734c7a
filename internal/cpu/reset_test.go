package cpu

import (
	"context"
	"reflect"
	"testing"

	"dpbp/internal/synth"
)

// resetTestConfigs exercises the component-reuse matrix: same config
// twice, then configs that resize individual components, then back.
func resetTestConfigs() []Config {
	mk := func(mut func(*Config)) Config {
		c := DefaultConfig()
		c.MaxInsts = 20_000
		mut(&c)
		return c
	}
	return []Config{
		mk(func(c *Config) {}),
		mk(func(c *Config) {}), // identical: pure in-place reset
		mk(func(c *Config) { c.Mode = ModeBaseline }),
		mk(func(c *Config) { c.Pruning = false }),
		mk(func(c *Config) { c.N = 4 }),              // tracker resize
		mk(func(c *Config) { c.PCacheEntries = 16 }), // pcache resize
		mk(func(c *Config) { c.Microcontexts = 4 }),  // ctxs resize
		mk(func(c *Config) { c.PathCache.PlainLRU = true }),
		mk(func(c *Config) { c.BPred = "tage" }),      // backend swap
		mk(func(c *Config) { c.BPred = "h2p" }),       // backend swap
		mk(func(c *Config) { c.H2PSpawnGate = true }), // gate on: filter built
		mk(func(c *Config) { c.H2PSpawnGate = true }), // gate stays on: filter rewound
		mk(func(c *Config) { // solo RunContext ignores the SMT block entirely
			c.SMT = SMTConfig{
				Contexts:        []WorkloadRef{{Bench: "gcc"}, {Bench: "ijpeg"}},
				FetchPolicy:     FetchICount,
				SharedPathCache: true,
				SharedPCache:    true,
			}
		}),
		mk(func(c *Config) {}), // back to default after every resize
	}
}

// TestResetClearsSMTState is the reset-vs-fresh contract for the SMT
// per-thread fields: a machine that served as an SMT primary context
// (context ID, shared budget, fetch-slot lattice all set) must, after
// Reset, run bit-identically to a fresh machine.
func TestResetClearsSMTState(t *testing.T) {
	p, err := synth.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := synth.Generate(p)
	cfg := DefaultConfig()
	cfg.MaxInsts = 20_000

	dirty := NewMachine()
	dirty.Reset(prog, cfg)
	dirty.ctxID = 3
	dirty.smt = &smtShared{active: 2, limit: 4}
	dirty.fcStride = 4
	dirty.fcPhase = 3

	fresh := Run(prog, cfg)
	got, err := dirty.RunContext(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, got) {
		t.Errorf("SMT-dirtied machine diverged after Reset\nfresh: %+v\ndirty: %+v", fresh, got)
	}
}

// TestResetMatchesFresh is the machine-reuse contract: running a sequence
// of (program, config) pairs on one reused Machine produces results
// byte-identical to fresh machines.
func TestResetMatchesFresh(t *testing.T) {
	benches := []string{"gcc", "mcf_2k"}
	reused := NewMachine()
	for _, bench := range benches {
		p, err := synth.ProfileByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		prog := synth.Generate(p)
		for i, cfg := range resetTestConfigs() {
			fresh := Run(prog, cfg)
			got, err := reused.RunContext(context.Background(), prog, cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: %v", bench, i, err)
			}
			if !reflect.DeepEqual(fresh, got) {
				t.Errorf("%s cfg %d: reused machine diverged\nfresh: %+v\nreused: %+v",
					bench, i, fresh, got)
			}
		}
	}
}

// TestRunContextCancellation verifies a cancelled run returns promptly
// with partial statistics and the context error.
func TestRunContextCancellation(t *testing.T) {
	p, err := synth.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := synth.Generate(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.MaxInsts = 50_000_000 // would take far too long if not cancelled
	res, err := NewMachine().RunContext(ctx, prog, cfg)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned nil result")
	}
	if res.Insts >= cfg.MaxInsts {
		t.Errorf("cancelled run executed the full budget (%d insts)", res.Insts)
	}
}

// TestPoolReuse verifies Get/Put recycles instances and results survive
// the machine's reuse.
func TestPoolReuse(t *testing.T) {
	var pool Pool
	m1 := pool.Get()
	pool.Put(m1)
	if m2 := pool.Get(); m2 != m1 {
		t.Error("pool did not recycle the returned machine")
	}

	p, err := synth.ProfileByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog := synth.Generate(p)
	cfg := DefaultConfig()
	cfg.MaxInsts = 10_000

	m := pool.Get()
	r1, _ := m.RunContext(context.Background(), prog, cfg)
	snapshot := *r1
	// Reuse the machine; the earlier result must be unaffected.
	if _, err := m.RunContext(context.Background(), prog, cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshot, *r1) {
		t.Error("result mutated by machine reuse; RunContext must copy out")
	}
	pool.Put(m)
}
