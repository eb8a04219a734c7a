package bpred

import (
	"dpbp/internal/bpred/h2p"
	"dpbp/internal/bpred/tage"
	"dpbp/internal/isa"
)

// Config sizes the predictor per Table 3 of the paper.
type Config struct {
	// PHTEntries sizes each hybrid component (gshare and PAs).
	PHTEntries int
	// SelectorEntries sizes the hybrid selector.
	SelectorEntries int
	// BTBEntries sizes the branch target buffer.
	BTBEntries int
	// RASDepth sizes the call/return stack.
	RASDepth int
	// TargetCacheEntries sizes the indirect target cache.
	TargetCacheEntries int
}

// DefaultConfig returns the Table 3 baseline: 128K-entry gshare/PAs hybrid,
// 64K-entry selector, 4K-entry BTB, 32-entry call/return stack, 64K-entry
// target cache.
func DefaultConfig() Config {
	return Config{
		PHTEntries:         128 << 10,
		SelectorEntries:    64 << 10,
		BTBEntries:         4 << 10,
		RASDepth:           32,
		TargetCacheEntries: 64 << 10,
	}
}

// Canonical fills zero-valued fields from DefaultConfig, per-field, so
// a partially specified config (say, only BTBEntries) still gets the
// Table 3 sizing for everything else instead of degenerate one-entry
// tables. Idempotent; NewNamed and NewBackend apply it.
func (c Config) Canonical() Config {
	d := DefaultConfig()
	if c.PHTEntries == 0 {
		c.PHTEntries = d.PHTEntries
	}
	if c.SelectorEntries == 0 {
		c.SelectorEntries = d.SelectorEntries
	}
	if c.BTBEntries == 0 {
		c.BTBEntries = d.BTBEntries
	}
	if c.RASDepth == 0 {
		c.RASDepth = d.RASDepth
	}
	if c.TargetCacheEntries == 0 {
		c.TargetCacheEntries = d.TargetCacheEntries
	}
	return c
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
	cfg = cfg.Canonical()
	dir, err := NewBackend(backend, cfg)
	if err != nil {
		return nil, err
	}
	return &Predictor{
		Dir:    dir,
		BTB:    NewBTB(cfg.BTBEntries),
		RAS:    NewRAS(cfg.RASDepth),
		TCache: NewTargetCache(cfg.TargetCacheEntries),
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
