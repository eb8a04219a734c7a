package cpu

import (
	"math/rand"
	"slices"
	"testing"

	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/path"
	"dpbp/internal/program"
	"dpbp/internal/uthread"
	"dpbp/internal/uthread/uthreadtest"
)

// TestSpawnMatchesExecute holds the one-pass spawn to uthread.Execute,
// the functional reference: on the builder property tests' random
// programs, a routine spawned at its spawn point must predict the outcome
// Execute computes against the same machine state, watch the addresses
// Execute loads in Execute's order, and count Execute's instructions.
func TestSpawnMatchesExecute(t *testing.T) {
	var loads, predicts, answered int
	for seed := int64(0); seed < 40; seed++ {
		for _, withStores := range []bool{false, true} {
			prog := uthreadtest.RandProgram(seed, withStores)
			for _, bcfg := range []uthread.BuildConfig{{MCBCapacity: 64}, uthread.DefaultBuildConfig(false), uthread.DefaultBuildConfig(true)} {
				r, branchSeq := buildRandom(t, prog, bcfg, seed)
				for _, mi := range r.Insts {
					switch mi.Inst.Op {
					case isa.OpLoad:
						loads++
					case isa.OpVpInst, isa.OpApInst:
						predicts++
					}
				}

				cfg := DefaultConfig()
				cfg.Mode = ModeMicrothread
				cfg.Pruning = bcfg.Pruning
				cfg.UsePredictions = true
				m := NewMachine()
				m.Reset(prog, cfg)
				// Train the value and address predictors that Vp_Inst
				// and Ap_Inst query on the whole run to the branch,
				// then retire the instructions before the spawn point.
				emu.New(prog).Run(branchSeq+1, func(rec *emu.Record) bool {
					if _, ok := rec.Inst.Writes(); ok {
						m.vp.Train(rec.PC, rec.DstVal)
					}
					if rec.Inst.IsLoad() {
						m.ap.Train(rec.PC, rec.SrcVal[0])
					}
					return true
				})
				spawnSeq := branchSeq - r.SeqDelta
				var rec emu.Record
				for m.em.Seq() < spawnSeq {
					if !m.em.Step(&rec) {
						t.Fatal("emulator stopped before the spawn point")
					}
				}
				for _, mi := range r.Insts {
					switch mi.Inst.Op {
					case isa.OpVpInst:
						if _, ok := m.vp.Predict(mi.OrigPC, mi.Ahead); ok {
							answered++
						}
					case isa.OpApInst:
						if _, ok := m.ap.Predict(mi.OrigPC, mi.Ahead); ok {
							answered++
						}
					}
				}

				want := uthread.Execute(r, &uthread.Env{
					ReadReg:      m.em.Reg,
					LoadMem:      m.em.Mem.Load,
					PredictValue: m.vp.Predict,
					PredictAddr:  m.ap.Predict,
				})
				m.spawn(0, r, spawnSeq, 0)
				ctx := &m.ctxs[0]
				e, ok := m.predCache.Consume(0, r.PathID, spawnSeq+r.SeqDelta)
				if !ok || e.Taken != want.Taken || e.Target != want.Target {
					t.Fatalf("seed %d stores %v %+v: spawn predicted %+v (written %v), Execute %+v\n%s",
						seed, withStores, bcfg, e, ok, want.Outcome, r)
				}
				if !slices.Equal(ctx.watch, want.LoadedEAs) {
					t.Fatalf("seed %d stores %v %+v: spawn watches %v, Execute loaded %v\n%s",
						seed, withStores, bcfg, ctx.watch, want.LoadedEAs, r)
				}
				if m.res.Micro.MicroInsts != uint64(want.Executed) || len(ctx.issues) != want.Executed {
					t.Fatalf("seed %d stores %v %+v: spawn ran %d instructions (%d scheduled), Execute %d",
						seed, withStores, bcfg, m.res.Micro.MicroInsts, len(ctx.issues), want.Executed)
				}
			}
		}
	}
	if loads == 0 || answered == 0 {
		t.Errorf("vacuous: %d loads, %d predictor queries, %d with an entry", loads, predicts, answered)
	}
}

// buildRandom runs prog to its terminating branch, filling a PRB with
// confidence bits drawn from seed, and builds the branch's routine. It
// returns the routine and the branch's sequence number.
func buildRandom(t *testing.T, prog *program.Program, cfg uthread.BuildConfig, seed int64) (*uthread.Routine, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prb := uthread.NewPRB(prbEntries)
	var branchSeq uint64
	found := false
	emu.New(prog).Run(10_000, func(r *emu.Record) bool {
		prb.Push(r, rng.Intn(2) == 0, rng.Intn(2) == 0)
		if r.Inst.IsTerminatingBranch() {
			branchSeq, found = r.Seq, true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no terminating branch executed")
	}
	r := uthread.NewBuilder(cfg).Build(prb, branchSeq, path.ID(1), int(branchSeq)+1, nil)
	if r == nil {
		t.Fatal("build failed")
	}
	return r, branchSeq
}
