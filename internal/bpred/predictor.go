package bpred

import (
	"dpbp/internal/bpred/h2p"
	"dpbp/internal/bpred/tage"
	"dpbp/internal/isa"
)

// The Table 3 target structures, which nothing varies, are constants,
// not Config fields.
const (
	btbEntries         = 4 << 10  // branch target buffer
	rasDepth           = 32       // call/return stack
	targetCacheEntries = 64 << 10 // indirect target cache
)

// Config sizes the hybrid direction predictor per Table 3 of the paper.
// NewNamed and NewBackend take it complete.
type Config struct {
	// PHTEntries sizes each hybrid component (gshare and PAs).
	PHTEntries int
	// SelectorEntries sizes the hybrid selector.
	SelectorEntries int
}

// DefaultConfig returns the Table 3 baseline: 128K-entry gshare/PAs
// hybrid and 64K-entry selector.
func DefaultConfig() Config {
	return Config{
		PHTEntries:      128 << 10,
		SelectorEntries: 64 << 10,
	}
}

// Prediction is the front end's guess for one branch.
type Prediction struct {
	// Taken is the predicted direction (always true for unconditional
	// control flow).
	Taken bool
	// Target is the predicted next PC when taken.
	Target isa.Addr
}

// Stats counts prediction outcomes by branch class.
type Stats struct {
	CondPredicted    uint64
	CondMispredicted uint64
	IndPredicted     uint64
	IndMispredicted  uint64
	RetPredicted     uint64
	RetMispredicted  uint64
}

// Mispredictions returns the total across classes.
func (s *Stats) Mispredictions() uint64 {
	return s.CondMispredicted + s.IndMispredicted + s.RetMispredicted
}

// Predictions returns the total across classes.
func (s *Stats) Predictions() uint64 {
	return s.CondPredicted + s.IndPredicted + s.RetPredicted
}

// Predictor bundles the Table 3 front-end prediction hardware. Predict is
// called at fetch, Update with the resolved outcome; the simulator calls
// them in fetch order (modelling perfectly repaired history). Dir is the
// pluggable direction backend; BTB/RAS/TCache handle targets and are
// shared by every backend.
type Predictor struct {
	Dir    Backend
	BTB    *BTB
	RAS    *RAS
	TCache *TargetCache
	Stats  Stats
}

// New builds a predictor with the default (hybrid) direction backend.
func New(cfg Config) *Predictor {
	p, err := NewNamed(cfg, BackendHybrid)
	if err != nil {
		// NewBackend always builds the hybrid; this is unreachable.
		panic(err)
	}
	return p
}

// NewNamed builds a predictor with the named direction backend. It
// errors on an unknown backend name; callers that accept external names
// (CLI flags, JSON configs) should surface the error.
func NewNamed(cfg Config, backend string) (*Predictor, error) {
	dir, err := NewBackend(backend, cfg)
	if err != nil {
		return nil, err
	}
	return &Predictor{
		Dir:    dir,
		BTB:    NewBTB(btbEntries),
		RAS:    NewRAS(rasDepth),
		TCache: NewTargetCache(targetCacheEntries),
	}, nil
}

// BackendStats copies the direction backend's counters into their
// section of the union.
func (p *Predictor) BackendStats() BackendStats {
	var s BackendStats
	switch d := p.Dir.(type) {
	case *Hybrid:
		s.Hybrid = d.Stats
	case *tage.Predictor:
		s.TAGE = d.Stats
	case *h2p.Predictor:
		s.H2P = d.Stats
	}
	return s
}

// Predict returns the front end's prediction for the branch in at pc.
// It mutates the RAS (push on call, pop on return), mirroring fetch-time
// behaviour.
func (p *Predictor) Predict(pc isa.Addr, in isa.Inst) Prediction {
	switch {
	case in.IsCondBranch():
		return Prediction{Taken: p.Dir.Predict(pc), Target: in.Target}
	case in.Op == isa.OpJmp:
		return Prediction{Taken: true, Target: in.Target}
	case in.Op == isa.OpCall:
		p.RAS.Push(pc + 1)
		return Prediction{Taken: true, Target: in.Target}
	case in.Op == isa.OpRet:
		if t, ok := p.RAS.Pop(); ok {
			return Prediction{Taken: true, Target: t}
		}
		if t, ok := p.TCache.Lookup(pc); ok {
			return Prediction{Taken: true, Target: t}
		}
		return Prediction{Taken: true, Target: pc + 1}
	case in.Op == isa.OpJmpInd:
		if t, ok := p.TCache.Lookup(pc); ok {
			return Prediction{Taken: true, Target: t}
		}
		if t, ok := p.BTB.Lookup(pc); ok {
			return Prediction{Taken: true, Target: t}
		}
		return Prediction{Taken: true, Target: pc + 1}
	}
	return Prediction{Taken: false, Target: pc + 1}
}

// Update trains the predictor with the resolved outcome and records
// statistics. pred must be the value Predict returned for this instance.
// It reports whether the branch was mispredicted.
func (p *Predictor) Update(pc isa.Addr, in isa.Inst, pred Prediction, taken bool, target isa.Addr) bool {
	miss := false
	switch {
	case in.IsCondBranch():
		p.Stats.CondPredicted++
		miss = pred.Taken != taken
		if miss {
			p.Stats.CondMispredicted++
		}
		p.Dir.Update(pc, taken)
		if taken {
			p.BTB.Update(pc, target)
		}
	case in.Op == isa.OpJmpInd:
		p.Stats.IndPredicted++
		miss = pred.Target != target
		if miss {
			p.Stats.IndMispredicted++
		}
		p.TCache.Update(pc, target)
	case in.Op == isa.OpRet:
		p.Stats.RetPredicted++
		miss = pred.Target != target
		if miss {
			p.Stats.RetMispredicted++
		}
	case in.Op == isa.OpCall, in.Op == isa.OpJmp:
		// Direct targets never mispredict in this model: decode
		// computes them in the same cycle the BTB would.
	}
	return miss
}
