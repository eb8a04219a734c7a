// Package pathcache implements the Path Cache of Section 4.1: the
// back-end structure that identifies difficult paths at run time.
//
// Each entry tracks one path with an occurrence counter and a
// misprediction counter. At the end of each training interval the entry's
// Difficult bit is set from the measured misprediction rate and the
// counters reset. Allocation is biased toward difficult paths: a new
// entry is allocated only when the terminating branch was mispredicted
// (the paper reports this avoids ~45% of allocations), and replacement
// uses LRU modified to prefer victims whose Difficult bit is clear.
//
// The promotion logic of Section 4.2.1 also lives here: when an update
// leaves an entry Difficult but not Promoted, Observe returns a promotion
// request; when an entry stops being difficult while promoted, it returns
// a demotion request. The caller (the SSMT core) sets the Promoted bit
// once the Microthread Builder accepts the request.
package pathcache

import (
	"dpbp/internal/obs"
	"dpbp/internal/path"
)

// Config sizes and tunes the Path Cache.
type Config struct {
	// Entries is the total entry count (the paper uses 8K).
	Entries int
	// Ways is the set associativity.
	Ways int
	// TrainInterval is the number of occurrences per difficulty
	// measurement (the paper uses 32).
	TrainInterval int
	// Threshold is the difficulty threshold T.
	Threshold float64
	// AllocateAlways disables allocate-on-mispredict (for ablation).
	AllocateAlways bool
	// PlainLRU disables the difficulty-biased replacement (for ablation).
	PlainLRU bool
}

// DefaultConfig returns the paper's configuration: 8K entries, 8-way,
// training interval 32, T = 0.10.
func DefaultConfig() Config {
	return Config{Entries: 8 << 10, Ways: 8, TrainInterval: 32, Threshold: 0.10}
}

// Event tells the caller what an Observe did.
type Event struct {
	// Promote requests microthread construction for the path.
	Promote bool
	// Demote tells the caller the path stopped being difficult and its
	// routine should be retired from the MicroRAM.
	Demote bool
}

// Stats counts Path Cache activity.
type Stats struct {
	Hits             uint64
	Misses           uint64
	Allocations      uint64
	AllocsAvoided    uint64 // misses not allocated (correctly predicted)
	Replacements     uint64
	DifficultSet     uint64 // Difficult-bit 0->1 transitions
	DifficultCleared uint64 // Difficult-bit 1->0 transitions
	Promotions       uint64
	Demotions        uint64
	// PromotionsRejected counts SetPromoted(id, false) calls: promotion
	// requests the Microthread Builder declined (busy, build failed, or
	// MicroRAM full). A rejection on a currently-promoted entry also
	// counts a demotion, since the Promoted bit transitions 1->0.
	PromotionsRejected uint64
}

// meta is everything an entry holds but its Path_Id. A probe reads only
// the Path_Ids; it reads an entry's meta once its Path_Id matches.
type meta struct {
	lru       uint64 // last-touch tick
	occ       uint32
	mis       uint32
	valid     bool
	difficult bool
	promoted  bool
}

// Cache is the Path Cache. Entry i of set s is ids[s*Ways+i] with
// metas[s*Ways+i]: a set's Path_Ids are contiguous, so an 8-way set's
// tags fill one 64-byte line and a lookup touches that line alone.
type Cache struct {
	cfg   Config //dpbp:reset-skip configuration, fixed at construction
	ids   []path.ID
	metas []meta
	mask  uint64 //dpbp:reset-skip geometry, fixed at construction
	tick  uint64

	Stats Stats

	// Trace, when non-nil, receives allocate/replace/promote/demote
	// events (nil-hook pattern: the timing core sets it when tracing is
	// enabled; event timestamps come from the tracer's SetNow clock).
	// It is pure observation and never influences behaviour.
	Trace *obs.Tracer
}

// New returns a Path Cache configured by cfg. The set count is
// cfg.Entries/cfg.Ways rounded DOWN to a power of two (minimum one
// set) for mask indexing, so the effective capacity — Capacity() —
// never exceeds the configured entry count; a non-power-of-two request
// is served by the largest power-of-two geometry that fits. (Rounding
// up, as this constructor once did, silently granted a 6K-entry
// configuration 8K entries and biased capacity-sensitivity ablations.)
func New(cfg Config) *Cache {
	d := DefaultConfig()
	if cfg.Entries <= 0 {
		cfg.Entries = d.Entries
	}
	if cfg.Ways <= 0 {
		cfg.Ways = d.Ways
	}
	if cfg.TrainInterval <= 0 {
		cfg.TrainInterval = d.TrainInterval
	}
	nsets := cfg.Entries / cfg.Ways
	// Round the set count down to a power of two (min 1).
	p := 1
	for p*2 <= nsets {
		p *= 2
	}
	nsets = p
	return &Cache{
		cfg:   cfg,
		ids:   make([]path.ID, nsets*cfg.Ways),
		metas: make([]meta, nsets*cfg.Ways),
		mask:  uint64(nsets - 1),
	}
}

// Capacity returns the effective entry count: sets × ways after the
// power-of-two set rounding. It is at most the configured Entries.
func (c *Cache) Capacity() int { return len(c.ids) }

// setBase returns the index of the first entry of id's set.
func (c *Cache) setBase(id path.ID) int {
	return int(uint64(id)&c.mask) * c.cfg.Ways
}

// lookup returns the index of id's entry, or -1.
func (c *Cache) lookup(id path.ID) int {
	base := c.setBase(id)
	for i, x := range c.ids[base : base+c.cfg.Ways] {
		if x == id && c.metas[base+i].valid {
			return base + i
		}
	}
	return -1
}

// Observe updates the Path Cache for a retired terminating branch on path
// id, with mispredicted reporting whether the hardware prediction was
// wrong. It returns any promotion/demotion event the update produced.
func (c *Cache) Observe(id path.ID, mispredicted bool) Event {
	c.tick++
	var e *meta
	if i := c.lookup(id); i >= 0 {
		c.Stats.Hits++
		e = &c.metas[i]
		e.lru = c.tick
	} else {
		c.Stats.Misses++
		if !mispredicted && !c.cfg.AllocateAlways {
			// Allocate-on-mispredict: correctly predicted first
			// encounters are not worth tracking.
			c.Stats.AllocsAvoided++
			return Event{}
		}
		v, replaced := c.victim(id)
		c.Stats.Allocations++
		if replaced {
			c.Stats.Replacements++
			if c.Trace != nil {
				c.Trace.Emit(obs.KindPathReplace, uint64(id), 0, uint64(c.ids[v]))
			}
		} else if c.Trace != nil {
			c.Trace.Emit(obs.KindPathAlloc, uint64(id), 0, 0)
		}
		c.ids[v] = id
		e = &c.metas[v]
		*e = meta{valid: true, lru: c.tick}
	}

	e.occ++
	if mispredicted {
		e.mis++
	}

	var ev Event
	if int(e.occ) >= c.cfg.TrainInterval {
		wasDifficult := e.difficult
		e.difficult = float64(e.mis)/float64(e.occ) > c.cfg.Threshold
		e.occ, e.mis = 0, 0
		if e.difficult && !wasDifficult {
			c.Stats.DifficultSet++
		}
		if !e.difficult && wasDifficult {
			c.Stats.DifficultCleared++
		}
		if !e.difficult && e.promoted {
			e.promoted = false
			c.Stats.Demotions++
			if c.Trace != nil {
				c.Trace.Emit(obs.KindPathDemote, uint64(id), 0, 0)
			}
			ev.Demote = true
		}
	}

	// Promotion logic runs on every update (Section 4.2.1): Difficult
	// set, Promoted clear -> request construction.
	if e.difficult && !e.promoted {
		ev.Promote = true
	}
	return ev
}

// SetPromoted records the builder's answer to a promotion request. Pass
// false if the builder could not satisfy the request, leaving the request
// to fire again on the next update. Every refusal counts in
// PromotionsRejected; a refusal that clears a currently-set Promoted bit
// additionally counts a demotion (the bit transitions 1->0), so
// builder-rejected promotions no longer vanish from the statistics.
func (c *Cache) SetPromoted(id path.ID, ok bool) {
	i := c.lookup(id)
	if i < 0 {
		return
	}
	e := &c.metas[i]
	if ok {
		if !e.promoted {
			c.Stats.Promotions++
			if c.Trace != nil {
				c.Trace.Emit(obs.KindPathPromote, uint64(id), 0, 0)
			}
		}
	} else {
		c.Stats.PromotionsRejected++
		if c.Trace != nil {
			c.Trace.Emit(obs.KindPathPromoteRejected, uint64(id), 0, 0)
		}
		if e.promoted {
			c.Stats.Demotions++
			if c.Trace != nil {
				c.Trace.Emit(obs.KindPathDemote, uint64(id), 0, 0)
			}
		}
	}
	e.promoted = ok
}

// Difficult reports whether the path currently has its Difficult bit set.
func (c *Cache) Difficult(id path.ID) bool {
	i := c.lookup(id)
	return i >= 0 && c.metas[i].difficult
}

// Promoted reports whether the path currently has its Promoted bit set.
func (c *Cache) Promoted(id path.ID) bool {
	i := c.lookup(id)
	return i >= 0 && c.metas[i].promoted
}

// victim picks a replacement slot in id's set and returns its index: an
// invalid slot if any, otherwise the LRU entry among non-difficult
// entries, falling back to the overall LRU entry when every way is
// difficult. PlainLRU disables the difficulty bias. The second return
// reports whether the slot holds a valid entry being replaced; victim
// itself is pure selection — the caller does the statistics and event
// accounting.
func (c *Cache) victim(id path.ID) (int, bool) {
	base := c.setBase(id)
	set := c.metas[base : base+c.cfg.Ways]
	for i := range set {
		if !set[i].valid {
			return base + i, false
		}
	}
	best := -1
	for i := range set {
		if !c.cfg.PlainLRU && set[i].difficult {
			continue
		}
		if best == -1 || set[i].lru < set[best].lru {
			best = i
		}
	}
	if best == -1 {
		for i := range set {
			if best == -1 || set[i].lru < set[best].lru {
				best = i
			}
		}
	}
	return base + best, true
}

// Occupancy returns the number of valid entries currently resident. It
// can never exceed Capacity — the SMT conservation laws in
// internal/oracle check exactly that on shared caches.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.metas {
		if c.metas[i].valid {
			n++
		}
	}
	return n
}

// DifficultCount returns the number of currently difficult entries, for
// statistics.
func (c *Cache) DifficultCount() int {
	n := 0
	for i := range c.metas {
		if c.metas[i].valid && c.metas[i].difficult {
			n++
		}
	}
	return n
}

// AllocAvoidedFraction returns the fraction of misses whose allocation was
// skipped by allocate-on-mispredict (the paper reports ~45%).
func (c *Cache) AllocAvoidedFraction() float64 {
	if c.Stats.Misses == 0 {
		return 0
	}
	return float64(c.Stats.AllocsAvoided) / float64(c.Stats.Misses)
}
