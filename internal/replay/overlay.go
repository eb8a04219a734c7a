// Package replay records the branch predictor's interaction with a
// program's retirement stream once, so any number of timing runs can
// read it back instead of re-simulating the predictor (Overlay).
//
// The recording is sound because the stream is config-invariant: the
// timing core is execution-driven down the correct path, subordinate
// microthreads never write emulator state (internal/analysis's
// specpurity proves this statically, internal/oracle dynamically), so
// every timing configuration retires the identical record sequence and
// makes the identical Predict/Update calls. A run that reads an overlay
// therefore produces a Result bit-identical to a live one;
// TestReplayMatchesLive and the oracle's overlay check hold this.
//
// Only the predictor interaction is worth recording: Predict and Update
// are orders of magnitude costlier per branch than an indexed read, and
// one overlay is shared by every run of a sweep. The functional stream
// itself is not — each run steps its own emulator, which costs about
// as much as reading a recording would.
package replay

import (
	"slices"

	"dpbp/internal/bpred"
	"dpbp/internal/emu"
	"dpbp/internal/program"
)

// Overlay is the recorded branch-predictor interaction for one program
// under one (front-end config, direction-backend spec) pair: the
// prediction the hardware would make for each branch of the stream, in
// retirement order, whether it mispredicted, and — at each requested
// budget — the predictor's cumulative statistics after that prefix.
//
// The recording is exact because the machine calls Predict and Update
// once per retired branch, in retirement order, with arguments drawn
// entirely from the record stream (PC, instruction, outcome, target) —
// so the predictor's state evolution is a pure function of the stream,
// independent of every timing switch, and the decisions for a shorter
// budget are a prefix of those for a longer one. One predictor pass at
// the largest budget therefore serves every run: a timing run at 400k
// and a profiling run at 1M read the same arrays, each taking its final
// statistics from its own budget's checkpoint.
//
// An overlay is immutable after NewOverlay; it is shared across runs and
// goroutines.
type Overlay struct {
	preds []bpred.Prediction
	miss  []uint64 // bitset parallel to preds
	cps   []Checkpoint
}

// Checkpoint is the predictor's cumulative state after one budget's
// prefix of the stream.
type Checkpoint struct {
	// Budget is the record budget this checkpoint describes, as
	// requested (the stream itself may be shorter).
	Budget uint64

	stats   bpred.Stats
	backend bpred.BackendStats
}

// NewOverlay executes prog through a predictor built from (cfg, spec),
// recording per-branch predictions and outcomes up to the largest of
// budgets and a statistics checkpoint at each budget. It errors on an
// unknown backend name, like bpred.NewFromSpec.
func NewOverlay(prog *program.Program, cfg bpred.Config, spec bpred.Spec, budgets []uint64) (*Overlay, error) {
	p, err := bpred.NewFromSpec(cfg, spec)
	if err != nil {
		return nil, err
	}
	bs := append([]uint64(nil), budgets...)
	slices.Sort(bs)
	bs = slices.Compact(bs)

	ov := &Overlay{cps: make([]Checkpoint, 0, len(bs))}
	ci := 0
	var n uint64
	emu.New(prog).Run(bs[len(bs)-1], func(r *emu.Record) bool {
		if ci < len(bs) && n == bs[ci] {
			ov.checkpoint(p, bs[ci])
			ci++
		}
		n++
		if !r.Inst.IsBranch() {
			return true
		}
		pr := p.Predict(r.PC, r.Inst)
		miss := p.Update(r.PC, r.Inst, pr, r.Taken, r.NextPC)
		if len(ov.preds)&63 == 0 {
			ov.miss = append(ov.miss, 0)
		}
		if miss {
			ov.miss[len(ov.preds)>>6] |= 1 << (uint(len(ov.preds)) & 63)
		}
		ov.preds = append(ov.preds, pr)
		return true
	})
	// Budgets at or past the end of the stream all see the same final
	// state: a run bounded by any of them consumes the whole stream.
	for ; ci < len(bs); ci++ {
		ov.checkpoint(p, bs[ci])
	}
	return ov, nil
}

func (ov *Overlay) checkpoint(p *bpred.Predictor, budget uint64) {
	ov.cps = append(ov.cps, Checkpoint{
		Budget:  budget,
		stats:   p.Stats,
		backend: p.BackendStats(),
	})
}

// Branch returns the i'th branch's prediction and whether the hardware
// mispredicted it.
func (ov *Overlay) Branch(i uint64) (bpred.Prediction, bool) {
	return ov.preds[i], ov.miss[i>>6]&(1<<(i&63)) != 0
}

// Checkpoint returns the statistics checkpoint recorded for budget, or
// false if the overlay was not built with it.
func (ov *Overlay) Checkpoint(budget uint64) (*Checkpoint, bool) {
	for i := range ov.cps {
		if ov.cps[i].Budget == budget {
			return &ov.cps[i], true
		}
	}
	return nil, false
}

// Stats returns the predictor's cumulative statistics at the checkpoint:
// the final statistics of a run that consumed the checkpoint's budget.
func (cp *Checkpoint) Stats() (bpred.Stats, bpred.BackendStats) {
	return cp.stats, cp.backend
}
