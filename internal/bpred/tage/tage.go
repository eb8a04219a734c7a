// Package tage is a TAGE-style conditional-branch direction predictor
// (TAgged GEometric history lengths; Seznec & Michaud — see PAPERS.md):
// a bimodal base table plus a series of tagged tables indexed by
// geometrically growing slices of global history. Each tagged entry
// carries a partial tag, a signed prediction counter, and a usefulness
// counter; the prediction comes from the matching table with the longest
// history (the provider), falling back to the next match (the alternate)
// when the provider entry is newly allocated and the use-alt counter says
// alternates have been the better guess.
//
// History is compressed into table indices with incrementally maintained
// folded registers: a folded register of width C over a history window of
// length L holds XOR over i < L of bit(i) << (i mod C), where bit(0) is
// the most recent outcome. TestFoldedMatchesNaive pins the incremental
// update against that definition across window/width combinations.
//
// Two departures from the literature keep the predictor inside the
// repository's bit-determinism contract (internal/analysis/
// simdeterminism): allocation on a misprediction takes the first
// zero-usefulness entry above the provider instead of an LFSR-randomised
// candidate, and the periodic usefulness decay halves every counter at a
// fixed update interval instead of clearing alternating bit columns.
package tage

import (
	"math"

	"dpbp/internal/isa"
)

// Config sizes the predictor. New takes it complete; DefaultConfig is
// the sizing every run uses.
type Config struct {
	// BimodalEntries sizes the base bimodal table.
	BimodalEntries int
	// Tables is the number of tagged tables.
	Tables int
	// TableEntries sizes each tagged table.
	TableEntries int
	// TagBits is the partial-tag width of tagged entries (at least 2).
	TagBits int
	// MinHistory is the shortest tagged table's history length.
	MinHistory int
	// MaxHistory is the longest tagged table's history length (at least
	// MinHistory).
	MaxHistory int
	// UDecayInterval is the number of updates between usefulness decays.
	UDecayInterval int
}

// DefaultConfig returns a configuration whose storage budget roughly
// matches the Table 3 hybrid it competes against: a 16K bimodal table and
// four 2K-entry tagged tables over history lengths 8..128.
func DefaultConfig() Config {
	return Config{
		BimodalEntries: 16 << 10,
		Tables:         4,
		TableEntries:   2 << 10,
		TagBits:        9,
		MinHistory:     8,
		MaxHistory:     128,
		UDecayInterval: 64 << 10,
	}
}

// Stats counts predictor activity for one run.
type Stats struct {
	// Lookups counts Predict calls; Updates counts Update calls. The
	// simulator pairs them one-to-one per conditional branch.
	Lookups uint64
	Updates uint64
	// ProviderTagged/ProviderBimodal split updates by where the provider
	// prediction came from.
	ProviderTagged  uint64
	ProviderBimodal uint64
	// AltUsed counts updates whose final prediction came from the
	// alternate instead of a newly allocated provider.
	AltUsed uint64
	// Correct/Mispredicts split updates by final-prediction outcome.
	Correct     uint64
	Mispredicts uint64
	// Allocations counts new tagged entries; AllocFailed counts
	// mispredictions where every candidate entry was useful (their
	// usefulness was decremented instead).
	Allocations uint64
	AllocFailed uint64
	// UDecays counts periodic usefulness-decay sweeps.
	UDecays uint64
}

// ctr3 is a 3-bit signed saturating prediction counter (-4..3);
// non-negative predicts taken.
type ctr3 int8

func (c ctr3) update(taken bool) ctr3 {
	if taken {
		if c < 3 {
			c++
		}
		return c
	}
	if c > -4 {
		c--
	}
	return c
}

func (c ctr3) taken() bool { return c >= 0 }

// weak reports a counter still in the weakly-confident band, which is
// what a freshly allocated entry stays in until it has seen outcomes.
func (c ctr3) weak() bool { return c == 0 || c == -1 }

// ctr2 is the bimodal table's 2-bit counter (0..3, >= 2 taken),
// initialised weakly taken like the rest of the repository's PHTs.
type ctr2 uint8

const weaklyTaken ctr2 = 2

func (c ctr2) update(taken bool) ctr2 {
	if taken {
		if c < 3 {
			c++
		}
		return c
	}
	if c > 0 {
		c--
	}
	return c
}

func (c ctr2) taken() bool { return c >= 2 }

// uctr is a 2-bit usefulness counter (0..3).
type uctr uint8

func (u uctr) inc() uctr {
	if u < 3 {
		u++
	}
	return u
}

func (u uctr) dec() uctr {
	if u > 0 {
		u--
	}
	return u
}

func (u uctr) halve() uctr { return u >> 1 }

// altCtr is the 4-bit signed use-alt-on-newly-allocated counter (-8..7);
// non-negative means trust the alternate over a weak new provider.
type altCtr int8

func (c altCtr) update(up bool) altCtr {
	if up {
		if c < 7 {
			c++
		}
		return c
	}
	if c > -8 {
		c--
	}
	return c
}

// folded is an incrementally maintained folded-history register: comp ==
// XOR over i < origLen of bit(i) << (i mod compLen), where bit(0) is the
// most recent history bit.
type folded struct {
	comp    uint64
	compLen uint   //dpbp:reset-skip sizing, fixed at construction
	outBit  uint   //dpbp:reset-skip sizing, fixed at construction (origLen mod compLen)
	mask    uint64 //dpbp:reset-skip sizing, fixed at construction
}

func newFolded(origLen, compLen int) folded {
	return folded{
		compLen: uint(compLen),
		outBit:  uint(origLen % compLen),
		mask:    (uint64(1) << compLen) - 1,
	}
}

// push rotates the new outcome bit in and the bit leaving the history
// window out. oldBit must be bit(origLen-1) before the new bit enters.
func (f *folded) push(newBit, oldBit uint64) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= oldBit << f.outBit
	f.comp ^= f.comp >> f.compLen
	f.comp &= f.mask
}

// entry is one tagged-table slot. A zero tag is a valid (if rarely hit)
// tag, as in the literature: the predictor tolerates cold aliasing.
type entry struct {
	tag uint16
	ctr ctr3
	u   uctr
}

// table is one tagged component.
type table struct {
	entries  []entry
	histLen  int    //dpbp:reset-skip sizing, fixed at construction
	shift    uint   //dpbp:reset-skip sizing, fixed at construction (log2(len(entries)))
	mask     uint64 //dpbp:reset-skip sizing, fixed at construction
	tagMask  uint16 //dpbp:reset-skip sizing, fixed at construction
	idxFold  folded
	tagFold  folded
	tagFold2 folded
}

func (t *table) index(pc isa.Addr) uint64 {
	return (uint64(pc) ^ uint64(pc)>>t.shift ^ t.idxFold.comp) & t.mask
}

func (t *table) tag(pc isa.Addr) uint16 {
	return uint16(uint64(pc)^t.tagFold.comp^(t.tagFold2.comp<<1)) & t.tagMask
}

// Predictor is the TAGE predictor. It implements internal/bpred's
// Backend interface directly.
type Predictor struct {
	cfg Config //dpbp:reset-skip configuration, fixed at construction

	bimodal     []ctr2
	bimodalMask uint64 //dpbp:reset-skip sizing, fixed at construction
	tables      []table

	// ghist is a ring of the most recent outcome bits; bit(i) =
	// ghist[(gpos-1-i) & gmask].
	ghist []uint8
	gpos  int
	gmask int //dpbp:reset-skip sizing, fixed at construction

	useAlt     altCtr
	sinceDecay uint64

	Stats Stats
}

// New builds a predictor from the complete cfg.
func New(cfg Config) *Predictor {
	bn := pow2AtLeast(cfg.BimodalEntries)
	tn := pow2AtLeast(cfg.TableEntries)
	lens := histLengths(cfg)
	p := &Predictor{
		cfg:         cfg,
		bimodal:     make([]ctr2, bn),
		bimodalMask: uint64(bn - 1),
		tables:      make([]table, cfg.Tables),
	}
	idxBits := log2(tn)
	for i := range p.tables {
		p.tables[i] = table{
			entries:  make([]entry, tn),
			histLen:  lens[i],
			shift:    uint(idxBits),
			mask:     uint64(tn - 1),
			tagMask:  uint16(1)<<cfg.TagBits - 1,
			idxFold:  newFolded(lens[i], idxBits),
			tagFold:  newFolded(lens[i], cfg.TagBits),
			tagFold2: newFolded(lens[i], cfg.TagBits-1),
		}
	}
	gn := pow2AtLeast(cfg.MaxHistory)
	p.ghist = make([]uint8, gn)
	p.gmask = gn - 1
	p.Reset()
	return p
}

// histLengths spaces cfg.Tables history lengths geometrically across
// [MinHistory, MaxHistory], strictly increasing.
func histLengths(cfg Config) []int {
	n := cfg.Tables
	out := make([]int, n)
	if n == 1 {
		out[0] = cfg.MaxHistory
		return out
	}
	lo, hi := float64(cfg.MinHistory), float64(cfg.MaxHistory)
	for i := range out {
		l := int(lo*math.Pow(hi/lo, float64(i)/float64(n-1)) + 0.5)
		if i > 0 && l <= out[i-1] {
			l = out[i-1] + 1
		}
		out[i] = l
	}
	return out
}

// bit returns the i-th most recent history outcome.
func (p *Predictor) bit(i int) uint64 {
	return uint64(p.ghist[(p.gpos-1-i)&p.gmask])
}

// lookup is one full prediction computation. It reads no mutable state
// destructively, so Update can recompute exactly what Predict returned
// for the same branch (the simulator trains in fetch order, with no
// state change between the pair).
type lookup struct {
	provider     int    // tagged table index; -1 = bimodal
	alt          int    // alternate table index; -1 = bimodal
	providerIdx  uint64 // the provider's entry index in its table
	providerPred bool
	altPred      bool
	pred         bool
	usedAlt      bool
}

func (p *Predictor) lookup(pc isa.Addr) lookup {
	lk := lookup{provider: -1, alt: -1}
	var altIdx uint64
	for i := len(p.tables) - 1; i >= 0; i-- {
		t := &p.tables[i]
		idx := t.index(pc)
		if t.entries[idx].tag != t.tag(pc) {
			continue
		}
		if lk.provider < 0 {
			lk.provider, lk.providerIdx = i, idx
		} else {
			lk.alt, altIdx = i, idx
			break
		}
	}
	bimodalPred := p.bimodal[uint64(pc)&p.bimodalMask].taken()
	if lk.provider < 0 {
		lk.providerPred = bimodalPred
		lk.altPred = bimodalPred
		lk.pred = bimodalPred
		return lk
	}
	pe := &p.tables[lk.provider].entries[lk.providerIdx]
	lk.providerPred = pe.ctr.taken()
	if lk.alt >= 0 {
		lk.altPred = p.tables[lk.alt].entries[altIdx].ctr.taken()
	} else {
		lk.altPred = bimodalPred
	}
	if pe.u == 0 && pe.ctr.weak() && p.useAlt >= 0 {
		lk.pred = lk.altPred
		lk.usedAlt = lk.altPred != lk.providerPred
	} else {
		lk.pred = lk.providerPred
	}
	return lk
}

// Predict returns the predicted direction for the conditional branch at
// pc. It mutates nothing but the lookup counter.
func (p *Predictor) Predict(pc isa.Addr) bool {
	p.Stats.Lookups++
	return p.lookup(pc).pred
}

// Update trains the predictor with the resolved outcome: use-alt and
// usefulness bookkeeping, provider (or bimodal) counter training,
// allocation on a misprediction, periodic usefulness decay, and the
// history shift.
func (p *Predictor) Update(pc isa.Addr, taken bool) {
	p.update(pc, p.lookup(pc), taken)
}

// Resolve is Predict followed by Update, with one lookup: it returns the
// prediction Predict would have returned and trains as Update would.
func (p *Predictor) Resolve(pc isa.Addr, taken bool) bool {
	p.Stats.Lookups++
	lk := p.lookup(pc)
	p.update(pc, lk, taken)
	return lk.pred
}

// update is Update given the branch's lookup.
func (p *Predictor) update(pc isa.Addr, lk lookup, taken bool) {
	p.Stats.Updates++
	if lk.pred == taken {
		p.Stats.Correct++
	} else {
		p.Stats.Mispredicts++
	}
	if lk.provider >= 0 {
		p.Stats.ProviderTagged++
	} else {
		p.Stats.ProviderBimodal++
	}
	if lk.usedAlt {
		p.Stats.AltUsed++
	}

	if lk.provider >= 0 {
		pe := &p.tables[lk.provider].entries[lk.providerIdx]
		// Train the use-alt chooser on branches where the weak new
		// provider and the alternate actually disagreed.
		if pe.u == 0 && pe.ctr.weak() && lk.providerPred != lk.altPred {
			p.useAlt = p.useAlt.update(lk.altPred == taken)
		}
		if lk.providerPred != lk.altPred {
			if lk.providerPred == taken {
				pe.u = pe.u.inc()
			} else {
				pe.u = pe.u.dec()
			}
		}
		pe.ctr = pe.ctr.update(taken)
	} else {
		i := uint64(pc) & p.bimodalMask
		p.bimodal[i] = p.bimodal[i].update(taken)
	}

	if lk.pred != taken && lk.provider < len(p.tables)-1 {
		p.allocate(pc, lk.provider, taken)
	}

	p.sinceDecay++
	if p.sinceDecay >= uint64(p.cfg.UDecayInterval) {
		p.sinceDecay = 0
		p.decayU()
		p.Stats.UDecays++
	}

	p.pushHistory(taken)
}

// allocate installs a new entry for pc in the first zero-usefulness slot
// of a table above the provider (deterministic first-fit; see the
// package comment). With no free slot, every candidate's usefulness is
// decremented so a persistently mispredicting branch eventually wins one.
func (p *Predictor) allocate(pc isa.Addr, provider int, taken bool) {
	for i := provider + 1; i < len(p.tables); i++ {
		t := &p.tables[i]
		e := &t.entries[t.index(pc)]
		if e.u == 0 {
			e.tag = t.tag(pc)
			e.u = 0
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			p.Stats.Allocations++
			return
		}
	}
	for i := provider + 1; i < len(p.tables); i++ {
		t := &p.tables[i]
		e := &t.entries[t.index(pc)]
		e.u = e.u.dec()
	}
	p.Stats.AllocFailed++
}

// decayU halves every usefulness counter (graceful aging).
func (p *Predictor) decayU() {
	for ti := range p.tables {
		es := p.tables[ti].entries
		for i := range es {
			es[i].u = es[i].u.halve()
		}
	}
}

// pushHistory shifts the resolved outcome into the global history and
// every folded register. The per-table outgoing bit is read before the
// ring advances: it is the bit at distance histLen-1, which the new bit
// pushes out of that table's window.
func (p *Predictor) pushHistory(taken bool) {
	var b uint64
	if taken {
		b = 1
	}
	for i := range p.tables {
		t := &p.tables[i]
		old := p.bit(t.histLen - 1)
		t.idxFold.push(b, old)
		t.tagFold.push(b, old)
		t.tagFold2.push(b, old)
	}
	p.ghist[p.gpos&p.gmask] = uint8(b)
	p.gpos++
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
