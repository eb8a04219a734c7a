package cpu

import (
	"context"
	"reflect"
	"testing"

	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/path"
	"dpbp/internal/pcache"
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
// byte-identical to fresh machines. The programs run 1,119, 147 and
// 1,291 instructions long, so the program-sized value and address
// predictor tables shrink and then grow.
func TestResetMatchesFresh(t *testing.T) {
	benches := []string{"gcc", "mcf_2k", "gcc_2k"}
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

// TestResetComponentsMatchFresh resets a machine dirtied by a long
// pruning microthread run and compares each recycled microthread-side
// component with a fresh machine's, field by field: the value and
// address predictors, the PRB, the Path Cache (tags and entry state),
// the Prediction Cache, and the memory system with its store buffer. A
// run-level comparison misses a component whose stale state happens not
// to change a short run's statistics; this one does not depend on the
// run.
func TestResetComponentsMatchFresh(t *testing.T) {
	p, err := synth.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := synth.Generate(p)
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000

	dirty := NewMachine()
	if _, err := dirty.RunContext(context.Background(), prog, cfg); err != nil {
		t.Fatal(err)
	}
	// The run must have left state in every component compared below.
	if dirty.vp.Trains == 0 || dirty.ap.Trains == 0 || dirty.prb.Len() == 0 ||
		dirty.pathCache.Occupancy() == 0 || dirty.predCache.Stats == (pcache.Stats{}) ||
		dirty.msys.Stores == 0 || dirty.res.Build.Builds == 0 {
		t.Fatalf("run left a component clean: vp %d ap %d trains, prb %d, path cache %d, pcache %+v, stores %d, builds %d",
			dirty.vp.Trains, dirty.ap.Trains, dirty.prb.Len(), dirty.pathCache.Occupancy(),
			dirty.predCache.Stats, dirty.msys.Stores, dirty.res.Build.Builds)
	}

	for _, bench := range []string{"gcc", "mcf_2k"} {
		p, err := synth.ProfileByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		next := synth.Generate(p)
		dirty.Reset(next, cfg)
		fresh := NewMachine()
		fresh.Reset(next, cfg)

		for _, c := range []struct {
			name      string
			got, want any
		}{
			{"value predictor", dirty.vp, fresh.vp},
			{"address predictor", dirty.ap, fresh.ap},
			{"path cache", dirty.pathCache, fresh.pathCache},
			{"memory system", dirty.msys, fresh.msys},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: reset %s differs from a fresh one", bench, c.name)
			}
		}
		// The PRB and the Prediction Cache keep stale slots that their
		// occupancy gates, so they are compared by behaviour: both take
		// the same operations and must answer alike.
		em := emu.New(next)
		var rec emu.Record
		for i := 0; i < 2*prbEntries && em.Step(&rec); i++ {
			dirty.prb.Push(&rec, i%3 == 0, i%5 == 0)
			fresh.prb.Push(&rec, i%3 == 0, i%5 == 0)
		}
		d, f := dirty.prb, fresh.prb
		if d.Len() != f.Len() || d.OldestSeq() != f.OldestSeq() || d.YoungestSeq() != f.YoungestSeq() {
			t.Errorf("%s: reset PRB holds seqs %d..%d (%d), fresh %d..%d (%d)", bench,
				d.OldestSeq(), d.YoungestSeq(), d.Len(), f.OldestSeq(), f.YoungestSeq(), f.Len())
		}
		for seq := f.OldestSeq(); seq <= f.YoungestSeq(); seq++ {
			de, fe := d.BySeq(seq), f.BySeq(seq)
			if de == nil || fe == nil || *de != *fe {
				t.Fatalf("%s: reset PRB seq %d = %+v, fresh %+v", bench, seq, de, fe)
			}
		}
		for i := uint64(0); i < 3*uint64(cfg.PCacheEntries); i++ {
			e := pcache.Entry{PathID: path.ID(i % 7), Seq: i, Taken: i%2 == 0, Target: isa.Addr(i), Ready: i}
			dirty.predCache.Write(e)
			fresh.predCache.Write(e)
			if i%4 == 0 {
				de, dok := dirty.predCache.Consume(0, path.ID(i%7), i/2)
				fe, fok := fresh.predCache.Consume(0, path.ID(i%7), i/2)
				if de != fe || dok != fok {
					t.Fatalf("%s: reset Prediction Cache consumed %+v %v, fresh %+v %v", bench, de, dok, fe, fok)
				}
			}
		}
		if dirty.predCache.Len() != fresh.predCache.Len() || dirty.predCache.Stats != fresh.predCache.Stats {
			t.Errorf("%s: reset Prediction Cache holds %d, stats %+v; fresh %d, %+v", bench,
				dirty.predCache.Len(), dirty.predCache.Stats, fresh.predCache.Len(), fresh.predCache.Stats)
		}
	}
}
