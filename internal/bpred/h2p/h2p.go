// Package h2p implements a Bullseye-style hard-to-predict (H2P) side
// predictor: a confidence/utility filter that identifies the small set
// of static branches concentrating the base predictor's mispredictions,
// plus a dedicated side structure consulted only for those branches.
//
// The design follows the observation in "Branch Prediction Is Not a
// Solved Problem" (and the Bullseye predictor built on it) that a few
// H2P branches account for nearly all residual mispredictions, so a
// small specialized structure aimed at exactly those branches can beat
// growing the general-purpose tables. It is the same observation the
// source paper exploits with subordinate microthreads; this package is
// the "more prediction hardware" alternative the shootout experiment
// pits against the microthread machinery.
//
// Two pieces are exported separately because they have two consumers:
//
//   - Filter is the H2P classifier alone: a direct-mapped tagged table
//     of per-PC (mispredict, total) counts aged by periodic halving. A
//     branch is H2P while its mispredict count is at or above a
//     threshold. The cpu layer can instantiate a bare Filter to gate
//     microthread spawning on H2P-ness without any side predictor.
//
//   - Predictor wraps a base direction predictor (any Base) and a
//     Filter, overriding the base's prediction only for classified-H2P
//     branches and only when its own side table is confident.
//
// Determinism: like the rest of the simulator, state evolves only from
// the (pc, taken) stream — no randomness, no wall clocks — so runs are
// bit-reproducible and Reset is bit-identical to fresh construction.
package h2p

import "dpbp/internal/isa"

// Config sizes the filter and the side predictor. New and NewFilter take
// it complete.
type Config struct {
	// FilterEntries is the number of direct-mapped filter slots
	// (rounded up to a power of two).
	FilterEntries int
	// FilterTagBits is the width of the partial PC tag stored per slot.
	FilterTagBits int
	// H2PThreshold is the aged mispredict count at or above which a
	// tracked branch is classified hard-to-predict.
	H2PThreshold int
	// FilterWindow is the aging period: when a slot's total count
	// reaches it, both of the slot's counts are halved.
	FilterWindow int
	// SideEntries is the number of side-table counters (rounded up to a
	// power of two).
	SideEntries int
	// SideHistBits is how many global history bits index the side table.
	SideHistBits int
	// SideConfidence is the minimum counter magnitude at which the side
	// table overrides the base prediction (1..4 for 3-bit counters).
	SideConfidence int
}

// DefaultConfig returns the sizing every run uses, for the h2p backend
// and for the cpu's H2P spawn-gate filter alike: a
// 2K-entry filter aged every 128 observations with threshold 4, and a
// 4K-entry side table over 12 history bits overriding at confidence 2.
func DefaultConfig() Config {
	return Config{
		FilterEntries:  2 << 10,
		FilterTagBits:  10,
		H2PThreshold:   4,
		FilterWindow:   128,
		SideEntries:    4 << 10,
		SideHistBits:   12,
		SideConfidence: 2,
	}
}

// Stats counts side-predictor activity. Overrides splits exactly into
// OverrideCorrect + OverrideWrong, and Overrides <= H2PBranches <=
// Updates; the oracle's stats-algebra laws check these.
type Stats struct {
	// Lookups counts Predict calls; Updates counts Update calls. The
	// machine pairs them one-to-one for conditional branches.
	Lookups uint64 `json:"lookups"`
	Updates uint64 `json:"updates"`
	// H2PBranches counts updates whose branch was classified H2P at
	// prediction time.
	H2PBranches uint64 `json:"h2p_branches"`
	// Overrides counts updates where the confident side table supplied
	// the final prediction in place of the base predictor.
	Overrides       uint64 `json:"overrides"`
	OverrideCorrect uint64 `json:"override_correct"`
	OverrideWrong   uint64 `json:"override_wrong"`
	// BaseMispredicts counts updates where the base predictor (alone)
	// would have mispredicted — the denominator for filter utility.
	BaseMispredicts uint64 `json:"base_mispredicts"`
}

// Base is the direction predictor the side predictor wraps. Predict
// must not change prediction state (it may count the lookup), because
// the update path re-derives the prediction; Update owns all state
// evolution. The bpred.Hybrid direction predictor satisfies this
// contract; its own statistics are never reported under this backend.
type Base interface {
	Predict(pc isa.Addr) bool
	Update(pc isa.Addr, taken bool)
	Reset()
}

// filterEntry is one direct-mapped H2P-filter slot. A zero entry is
// empty: tot == 0 never classifies as H2P regardless of tag.
type filterEntry struct {
	tag  uint16
	miss uint16
	tot  uint16
}

// Filter is the standalone H2P classifier. Observe feeds it the base
// predictor's per-branch outcome; IsH2P is a pure query usable at
// prediction (or spawn-decision) time.
type Filter struct {
	entries []filterEntry
	mask    isa.Addr //dpbp:reset-skip sizing fixed at construction
	shift   uint     //dpbp:reset-skip sizing fixed at construction
	tagMask uint16   //dpbp:reset-skip sizing fixed at construction
	thresh  uint16   //dpbp:reset-skip config fixed at construction
	window  uint16   //dpbp:reset-skip config fixed at construction
}

// NewFilter builds a filter from the complete cfg.
func NewFilter(cfg Config) *Filter {
	n := pow2AtLeast(cfg.FilterEntries)
	f := &Filter{
		entries: make([]filterEntry, n),
		mask:    isa.Addr(n - 1),
		shift:   uint(log2(n)),
		tagMask: uint16(1)<<cfg.FilterTagBits - 1,
		thresh:  uint16(cfg.H2PThreshold),
		window:  uint16(cfg.FilterWindow),
	}
	return f
}

func (f *Filter) index(pc isa.Addr) isa.Addr { return (pc ^ pc>>f.shift) & f.mask }
func (f *Filter) tag(pc isa.Addr) uint16     { return uint16(pc>>f.shift) & f.tagMask }

// IsH2P reports whether pc is currently classified hard-to-predict. It
// is pure: prediction-time and update-time calls agree.
func (f *Filter) IsH2P(pc isa.Addr) bool {
	e := f.entries[f.index(pc)]
	return e.tot > 0 && e.tag == f.tag(pc) && e.miss >= f.thresh
}

// Observe records one resolved branch for pc: miss says whether the
// base predictor got it wrong. A tag mismatch evicts the incumbent (the
// table tracks whoever executed most recently); reaching the aging
// window halves both counts so stale difficulty decays.
func (f *Filter) Observe(pc isa.Addr, miss bool) {
	i := f.index(pc)
	tag := f.tag(pc)
	e := &f.entries[i]
	if e.tot == 0 || e.tag != tag {
		*e = filterEntry{tag: tag}
	}
	e.tot++
	if miss {
		e.miss++
	}
	if e.tot >= f.window {
		e.tot >>= 1
		e.miss >>= 1
	}
}

// sctr is a 3-bit signed taken/not-taken counter (-4..3) for the side
// table. Only its methods mutate it (counterwidth enforces this).
type sctr int8

func (c sctr) taken() bool { return c >= 0 }

// confident reports whether the counter magnitude reaches conf:
// taken-confident at >= conf, not-taken-confident at < -conf.
func (c sctr) confident(conf int) bool {
	return int(c) >= conf || int(c) < -conf
}

func (c *sctr) update(taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > -4 {
		*c--
	}
}

// Predictor is the full H2P side predictor: base + filter + side table.
type Predictor struct {
	cfg      Config //dpbp:reset-skip config fixed at construction
	base     Base
	filter   *Filter
	side     []sctr
	sideMask isa.Addr //dpbp:reset-skip sizing fixed at construction
	hist     uint64
	histMask uint64 //dpbp:reset-skip sizing fixed at construction

	Stats Stats
}

// New builds a side predictor wrapping base from the complete cfg.
func New(cfg Config, base Base) *Predictor {
	n := pow2AtLeast(cfg.SideEntries)
	return &Predictor{
		cfg:      cfg,
		base:     base,
		filter:   NewFilter(cfg),
		side:     make([]sctr, n),
		sideMask: isa.Addr(n - 1),
		histMask: uint64(1)<<cfg.SideHistBits - 1,
	}
}

// Filter exposes the classifier for reconciliation and tests.
func (p *Predictor) Filter() *Filter { return p.filter }

func (p *Predictor) sideIndex(pc isa.Addr) isa.Addr {
	return (pc ^ isa.Addr(p.hist)) & p.sideMask
}

// decision is the pure prediction outcome shared by Predict and Update.
type decision struct {
	pred     bool // final direction
	basePred bool // what the base predictor said
	h2p      bool // branch was classified H2P
	override bool // side table supplied pred
}

// decide computes the prediction without mutating any prediction state:
// the base's Predict leaves it alone by contract, and the filter/side
// reads are pure.
func (p *Predictor) decide(pc isa.Addr) decision {
	d := decision{basePred: p.base.Predict(pc)}
	d.pred = d.basePred
	if p.filter.IsH2P(pc) {
		d.h2p = true
		c := p.side[p.sideIndex(pc)]
		if c.confident(p.cfg.SideConfidence) {
			d.pred = c.taken()
			d.override = true
		}
	}
	return d
}

// Predict returns the predicted direction for a conditional branch.
func (p *Predictor) Predict(pc isa.Addr) bool {
	p.Stats.Lookups++
	return p.decide(pc).pred
}

// Update trains on the resolved outcome. It re-derives the decision
// (Predict having mutated nothing), trains the side table for H2P
// branches, feeds the filter the base's outcome, advances the side
// history, and finally trains the base.
func (p *Predictor) Update(pc isa.Addr, taken bool) {
	d := p.decide(pc)
	p.Stats.Updates++
	if d.h2p {
		p.Stats.H2PBranches++
	}
	if d.override {
		p.Stats.Overrides++
		if d.pred == taken {
			p.Stats.OverrideCorrect++
		} else {
			p.Stats.OverrideWrong++
		}
	}
	if d.basePred != taken {
		p.Stats.BaseMispredicts++
	}
	if d.h2p {
		p.side[p.sideIndex(pc)].update(taken)
	}
	p.filter.Observe(pc, d.basePred != taken)
	p.hist = (p.hist<<1 | b2u(taken)) & p.histMask
	p.base.Update(pc, taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// pow2AtLeast returns the smallest power of two >= n (minimum 1).
func pow2AtLeast(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// log2 returns the base-2 logarithm of a power of two.
func log2(n int) int {
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k
}
