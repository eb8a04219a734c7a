package bpred

import "dpbp/internal/isa"

// Gshare is a global-history XOR-indexed pattern history table of 2-bit
// counters (McFarling), packed four to a byte. History is maintained by
// the caller-visible Update; the simulator trains with resolved outcomes
// in fetch order, which models a machine with perfectly repaired history
// checkpoints.
type Gshare struct {
	pht      counterTable
	hist     uint64
	histBits uint   //dpbp:reset-skip sizing, fixed at construction
	mask     uint64 //dpbp:reset-skip sizing, fixed at construction
	// histShift positions the history against the PC in index:
	// log2(entries) - histBits, fixed at construction.
	histShift uint //dpbp:reset-skip sizing, fixed at construction
}

// NewGshare returns a gshare predictor with entries counters (rounded up
// to a power of two) and history length min(log2(entries), 16).
func NewGshare(entries int) *Gshare {
	n := pow2AtLeast(entries)
	hb := uint(log2(n))
	if hb > 16 {
		hb = 16
	}
	return &Gshare{pht: newCounterTable(n, weaklyTaken), histBits: hb, mask: uint64(n - 1),
		histShift: uint(log2(n)) - hb}
}

func (g *Gshare) index(pc isa.Addr) uint64 {
	return (uint64(pc) ^ (g.hist << g.histShift)) & g.mask
}

// Predict returns the predicted direction for the conditional branch at pc.
func (g *Gshare) Predict(pc isa.Addr) bool {
	return g.pht.at(g.index(pc)).taken()
}

// Update trains the entry used for pc and shifts the outcome into the
// global history.
func (g *Gshare) Update(pc isa.Addr, taken bool) {
	i := g.index(pc)
	g.train(i, g.pht.at(i), taken)
}

// train stores counter i, which holds c, trained toward the outcome, and
// shifts the outcome into the global history.
func (g *Gshare) train(i uint64, c counter2, taken bool) {
	g.pht.set(i, c.update(taken))
	g.shift(taken)
}

// shift pushes an outcome into the global history without training,
// used for unconditional control flow that some configurations record.
func (g *Gshare) shift(taken bool) {
	g.hist = (g.hist << 1) & ((1 << g.histBits) - 1)
	if taken {
		g.hist |= 1
	}
}

// PAs is a per-address two-level predictor: a first-level table of local
// history registers indexed by PC, and a second-level PHT indexed by the
// local history concatenated with PC bits. Its PHT packs its 2-bit
// counters four to a byte.
type PAs struct {
	localHist []uint16
	pht       counterTable
	histBits  uint   //dpbp:reset-skip sizing, fixed at construction
	bhtMask   uint64 //dpbp:reset-skip sizing, fixed at construction
	phtMask   uint64 //dpbp:reset-skip sizing, fixed at construction
}

// NewPAs returns a PAs predictor with phtEntries second-level counters and
// bhtEntries local-history registers, both rounded up to powers of two.
func NewPAs(phtEntries, bhtEntries int) *PAs {
	pn := pow2AtLeast(phtEntries)
	bn := pow2AtLeast(bhtEntries)
	hb := uint(log2(pn)) / 2
	if hb > 16 {
		hb = 16
	}
	if hb < 4 {
		hb = 4
	}
	return &PAs{
		localHist: make([]uint16, bn),
		pht:       newCounterTable(pn, weaklyTaken),
		histBits:  hb,
		bhtMask:   uint64(bn - 1),
		phtMask:   uint64(pn - 1),
	}
}

// index returns pc's local-history register b and its PHT counter i,
// reading the register once.
func (p *PAs) index(pc isa.Addr) (b, i uint64) {
	b = uint64(pc) & p.bhtMask
	h := uint64(p.localHist[b]) & ((1 << p.histBits) - 1)
	return b, ((uint64(pc) << p.histBits) | h) & p.phtMask
}

// Predict returns the predicted direction for the conditional branch at pc.
func (p *PAs) Predict(pc isa.Addr) bool {
	_, i := p.index(pc)
	return p.pht.at(i).taken()
}

// Update trains the used entry and shifts the outcome into pc's local
// history register.
func (p *PAs) Update(pc isa.Addr, taken bool) {
	b, i := p.index(pc)
	p.train(b, i, p.pht.at(i), taken)
}

// train stores counter i, which holds c, trained toward the outcome, and
// shifts the outcome into local-history register b.
func (p *PAs) train(b, i uint64, c counter2, taken bool) {
	p.pht.set(i, c.update(taken))
	p.localHist[b] <<= 1
	if taken {
		p.localHist[b] |= 1
	}
}

// Hybrid combines gshare and PAs with a selector table of 2-bit counters
// (counter high → use gshare), packed four to a byte. The selector trains
// only when the two components disagree.
type Hybrid struct {
	G        *Gshare
	P        *PAs
	selector counterTable
	selMask  uint64 //dpbp:reset-skip sizing, fixed at construction

	Stats HybridStats
}

// HybridStats counts the hybrid's lookups and, per update, the
// selector's choice of component.
type HybridStats struct {
	Lookups uint64 `json:"lookups"`
	Updates uint64 `json:"updates"`
	// GshareSelected/PAsSelected count which component the selector
	// chose at update; they sum to Updates.
	GshareSelected uint64 `json:"gshare_selected"`
	PAsSelected    uint64 `json:"pas_selected"`
	// Disagreements counts updates where the components differed (the
	// only case that trains the selector).
	Disagreements uint64 `json:"disagreements"`
	// Correct counts updates whose final prediction matched the outcome.
	Correct uint64 `json:"correct"`
}

// NewHybrid builds the Table 3 configuration scaled by the given sizes.
func NewHybrid(phtEntries, selEntries int) *Hybrid {
	n := pow2AtLeast(selEntries)
	return &Hybrid{
		G:        NewGshare(phtEntries),
		P:        NewPAs(phtEntries, phtEntries/32),
		selector: newCounterTable(n, weaklyTaken), // start trusting gshare
		selMask:  uint64(n - 1),
	}
}

// Predict returns the hybrid's direction prediction for pc. It changes
// no prediction state, only the lookup count.
func (h *Hybrid) Predict(pc isa.Addr) bool {
	h.Stats.Lookups++
	if h.selector.at(uint64(pc) & h.selMask).taken() {
		return h.G.Predict(pc)
	}
	return h.P.Predict(pc)
}

// Update counts the selector's choice, the components' disagreement and
// whether the prediction was right, then trains both components, and the
// selector toward whichever component was right when they disagreed.
func (h *Hybrid) Update(pc isa.Addr, taken bool) {
	h.update(pc, taken)
}

// Resolve is Predict followed by Update, computing the gshare index, the
// PAs index (one local-history read) and the selector index once. It
// returns the prediction Predict would have returned.
func (h *Hybrid) Resolve(pc isa.Addr, taken bool) bool {
	h.Stats.Lookups++
	return h.update(pc, taken)
}

// update is Update, returning the prediction the hybrid made.
func (h *Hybrid) update(pc isa.Addr, taken bool) bool {
	gi := h.G.index(pc)
	pb, pi := h.P.index(pc)
	gc, pc2 := h.G.pht.at(gi), h.P.pht.at(pi)
	gp, pp := gc.taken(), pc2.taken()
	i := uint64(pc) & h.selMask
	sel := h.selector.at(i)
	pred := pp
	h.Stats.Updates++
	if sel.taken() {
		h.Stats.GshareSelected++
		pred = gp
	} else {
		h.Stats.PAsSelected++
	}
	if pred == taken {
		h.Stats.Correct++
	}
	if gp != pp {
		h.Stats.Disagreements++
		h.selector.set(i, sel.update(gp == taken))
	}
	h.G.train(gi, gc, taken)
	h.P.train(pb, pi, pc2, taken)
	return pred
}

// pow2AtLeast returns the smallest power of two >= n (at least 1).
func pow2AtLeast(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// log2 returns floor(log2(n)) for n >= 1.
func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}
