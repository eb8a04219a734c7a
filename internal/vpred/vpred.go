// Package vpred implements the back-end value and address predictors the
// pruning optimisation relies on (Section 4.2.5 of the paper).
//
// Both predictors are the same machine: a PC-indexed table of
// last-value + stride entries with a confidence counter. Restricting to
// constant (stride 0) and stride-based prediction is what makes the
// paper's k-ahead queries trivial: the prediction for the instance k
// occurrences ahead of the last trained one is lastValue + k*stride.
//
// The predictors are trained on the primary thread's retirement stream,
// just before instructions enter the PRB, and the per-instruction
// confidence is snapshotted into each PRB entry so the Microthread Builder
// can identify pruning opportunities at construction time.
package vpred

import "dpbp/internal/isa"

// Config sizes a stride predictor.
type Config struct {
	// Entries is the largest table size (rounded up to a power of two);
	// a predictor for a shorter program takes fewer (see Predictor).
	Entries int
	// ConfMax is the confidence saturation value.
	ConfMax int
	// ConfThreshold is the confidence at or above which a prediction is
	// considered confident (prunable).
	ConfThreshold int
}

// DefaultConfig returns the configuration used in the evaluation: 16K
// entries, 3-bit confidence saturating at 7, confident at 4+.
func DefaultConfig() Config {
	return Config{Entries: 16 << 10, ConfMax: 7, ConfThreshold: 4}
}

// entry is one table slot. Ahead-distance bookkeeping in microthreads is
// done by the builder, so an entry stores only the value state; conf is
// an int32 so that it packs beside valid in a 32-byte entry.
type entry struct {
	tag    isa.Addr
	last   isa.Word
	stride isa.Word
	conf   int32
	valid  bool
}

// Predictor is a last-value/stride predictor with confidence. Its table
// is direct-mapped by PC and sized for the program it serves: the
// smallest power of two that holds every PC of the program, up to
// cfg.Entries. Each of the program's PCs then maps to the slot the
// full-size table would give it, so the shorter table leaves out only
// slots the program never trains. A query for a PC beyond the program (a
// co-runner's routine under a shared MicroRAM) misses the tag check at
// either size.
type Predictor struct {
	entries []entry
	mask    uint64
	cfg     Config //dpbp:reset-skip configuration, fixed at construction

	// Stats.
	Trains     uint64
	Hits       uint64 // training instances where the prediction matched
	Queries    uint64
	Confidents uint64
}

// New returns a predictor for a program of pcs instructions, sized by
// cfg (see Predictor). Train must see only PCs below pcs, unless pcs is
// at least cfg.Entries.
func New(cfg Config, pcs int) *Predictor {
	p := &Predictor{cfg: cfg}
	p.Reset(pcs)
	return p
}

func (p *Predictor) at(pc isa.Addr) *entry {
	return &p.entries[uint64(pc)&p.mask]
}

// Train observes the retired value produced by the instruction at pc.
func (p *Predictor) Train(pc isa.Addr, value isa.Word) {
	p.Trains++
	e := p.at(pc)
	if !e.valid || e.tag != pc {
		*e = entry{tag: pc, last: value, valid: true}
		return
	}
	predicted := e.last + e.stride
	if predicted == value {
		p.Hits++
		if int(e.conf) < p.cfg.ConfMax {
			e.conf++
		}
	} else {
		newStride := value - e.last
		if newStride == e.stride {
			// The stride is right but we skipped instances (e.g.
			// path divergence); keep confidence.
		} else {
			e.stride = newStride
			e.conf = 0
		}
	}
	e.last = value
}

// TrainConfident trains on a retired value and reports whether the entry
// is confident afterwards. It is exactly Train followed by Confident with
// a single table access; the retirement loop calls it per instruction.
func (p *Predictor) TrainConfident(pc isa.Addr, value isa.Word) bool {
	p.Train(pc, value)
	e := p.at(pc)
	return e.valid && e.tag == pc && int(e.conf) >= p.cfg.ConfThreshold
}

// Confident reports whether the instruction at pc currently has a
// confident (prunable) prediction.
func (p *Predictor) Confident(pc isa.Addr) bool {
	e := p.at(pc)
	return e.valid && e.tag == pc && int(e.conf) >= p.cfg.ConfThreshold
}

// Predict returns the predicted value for the instance `ahead` occurrences
// after the last trained one (ahead=1 is the next dynamic instance). The
// second result reports whether the entry exists at all; callers should
// gate on Confident for pruning decisions.
func (p *Predictor) Predict(pc isa.Addr, ahead int) (isa.Word, bool) {
	p.Queries++
	e := p.at(pc)
	if !e.valid || e.tag != pc {
		return 0, false
	}
	if int(e.conf) >= p.cfg.ConfThreshold {
		p.Confidents++
	}
	return e.last + e.stride*isa.Word(ahead), true
}

// Confidence returns the current confidence counter for pc (0 if absent),
// for statistics and tests.
func (p *Predictor) Confidence(pc isa.Addr) int {
	e := p.at(pc)
	if !e.valid || e.tag != pc {
		return 0
	}
	return int(e.conf)
}

// HitRate returns the fraction of training instances whose value was
// predicted correctly, a cheap accuracy proxy.
func (p *Predictor) HitRate() float64 {
	if p.Trains == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Trains)
}
