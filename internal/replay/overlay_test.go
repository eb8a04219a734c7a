package replay_test

import (
	"context"
	"testing"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/emu"
	"dpbp/internal/replay"
	"dpbp/internal/synth"
)

// TestOverlayMatchesLivePredictor drives a fresh predictor over the live
// stream — the exact Predict/Update pairing the timing core uses — and
// requires the overlay to have recorded the same per-branch predictions
// and mispredict flags, with each budget's checkpoint equal to the
// predictor statistics a run of exactly that length would finish with.
func TestOverlayMatchesLivePredictor(t *testing.T) {
	prog := benchProg(t, synth.Names()[2])
	budgets := []uint64{5_000, 20_000, 60_000}
	specs := []bpred.Spec{{}, {Name: bpred.BackendTAGE}, {Name: bpred.BackendH2P}}

	for _, spec := range specs {
		spec := spec
		t.Run("backend="+spec.Canonical().Name, func(t *testing.T) {
			ov, err := replay.NewOverlay(prog, bpred.Config{}, spec, budgets)
			if err != nil {
				t.Fatalf("NewOverlay: %v", err)
			}

			for _, budget := range budgets {
				// Live reference: predictor over the first budget records.
				p, err := bpred.NewFromSpec(bpred.Config{}, spec)
				if err != nil {
					t.Fatalf("NewFromSpec: %v", err)
				}
				type decision struct {
					pred bpred.Prediction
					miss bool
				}
				var want []decision
				emu.New(prog).Run(budget, func(r *emu.Record) bool {
					if !r.Inst.IsBranch() {
						return true
					}
					pr := p.Predict(r.PC, r.Inst)
					miss := p.Update(r.PC, r.Inst, pr, r.Taken, r.NextPC)
					want = append(want, decision{pr, miss})
					return true
				})

				// The overlay prefix must be the live decision sequence...
				cp, ok := ov.Checkpoint(budget)
				if !ok {
					t.Fatalf("no checkpoint for built budget %d", budget)
				}
				for i, d := range want {
					pr, miss := ov.Branch(uint64(i))
					if pr != d.pred || miss != d.miss {
						t.Fatalf("budget %d, branch %d: overlay (%+v, %v) vs live (%+v, %v)",
							budget, i, pr, miss, d.pred, d.miss)
					}
				}
				// ...and the checkpoint must carry that run's final stats.
				stats, backend := cp.Stats()
				if stats != p.Stats {
					t.Fatalf("budget %d: checkpoint stats %+v, live %+v", budget, stats, p.Stats)
				}
				if backend != p.BackendStats() {
					t.Fatalf("budget %d: checkpoint backend stats %+v, live %+v",
						budget, backend, p.BackendStats())
				}
			}
		})
	}
}

// TestOverlayUnknownBudget pins the checkpoint contract: a run at a
// budget the overlay was not built for retires nothing and reports an
// error, rather than reading statistics that describe another budget.
func TestOverlayUnknownBudget(t *testing.T) {
	prog := synth.Random(2, 2)
	ov, err := replay.NewOverlay(prog, bpred.Config{}, bpred.Spec{}, []uint64{10_000})
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	var retired int
	cfg := cpu.Config{Mode: cpu.ModeBaseline, MaxInsts: 123,
		OnRetire: func(*emu.Record) { retired++ }}
	res, err := cpu.NewMachine().RunContextFrom(context.Background(), prog, cfg, ov)
	if err == nil {
		t.Fatal("run at a budget without a checkpoint succeeded")
	}
	if res != nil || retired != 0 {
		t.Fatalf("run at a budget without a checkpoint retired %d instructions (Result %v)", retired, res)
	}
}

// TestOverlayUnknownBackend mirrors bpred.NewFromSpec's error contract.
func TestOverlayUnknownBackend(t *testing.T) {
	if _, err := replay.NewOverlay(synth.Random(2, 2), bpred.Config{}, bpred.Spec{Name: "no-such-backend"}, []uint64{1_000}); err == nil {
		t.Fatal("NewOverlay accepted an unknown backend name")
	}
}
