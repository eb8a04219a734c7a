// Package pcache implements the Prediction Cache of Section 4.3.3: the
// structure through which microthreads communicate pre-computed branch
// outcomes to the front end.
//
// A microthread's Store_PCache writes an entry keyed by (Ctx, Path_Id,
// Seq_Num) — the primary context that spawned the microthread, the path
// being predicted, and the dynamic sequence number of the specific branch
// instance. The front end probes the cache when it fetches a branch; a
// hit overrides the hardware prediction. Writes that arrive after the
// branch was fetched are matched against in-flight instances by the core
// to initiate early recoveries (that matching lives in the timing core;
// this package stores and expires entries).
//
// The context tag exists for SMT: each primary thread numbers its dynamic
// instructions from zero, so under a shared Prediction Cache a bare
// (Path_Id, Seq_Num) key would collide across contexts, and one thread's
// expiry sweep would reclaim a slower co-runner's still-future entries.
// Single-thread runs pass context 0 everywhere and behave exactly as
// before.
//
// The cache is small (128 entries in the paper) because entries are
// short-lived: any entry whose Seq_Num is behind its own context's fetch
// position can never match again and is eagerly reclaimed.
package pcache

import (
	"dpbp/internal/isa"
	"dpbp/internal/path"
)

// Entry is one microthread prediction.
type Entry struct {
	// Ctx is the primary context whose instruction stream Seq indexes;
	// 0 outside SMT runs.
	Ctx    uint8
	PathID path.ID
	Seq    uint64
	Taken  bool
	Target isa.Addr
	// Ready is the cycle at which the Store_PCache completes and the
	// prediction becomes visible to the front end. The timing core uses
	// it to classify deliveries as early, late, or useless.
	Ready uint64
}

// Stats counts Prediction Cache activity.
type Stats struct {
	Writes     uint64
	Overwrites uint64 // same (PathID, Seq) written twice
	Evictions  uint64 // live entry displaced by a write to a full cache
	Expired    uint64 // stale entries reclaimed
	Hits       uint64 // front-end probes that matched
	Misses     uint64
}

// Cache is the Prediction Cache.
type Cache struct {
	cap     int     //dpbp:reset-skip capacity, fixed at construction
	entries []Entry //dpbp:reset-skip stale entries are gated by used, which Reset clears
	used    []bool
	free    []int
	// index finds an entry's slot by its (Ctx, PathID, Seq) key: an
	// open-addressed table at least twice the capacity, probed linearly
	// from the key's home cell. A cell holds slot+1; 0 marks it empty.
	index []int32
	shift uint //dpbp:reset-skip hash width, fixed at construction

	Stats Stats
}

// New returns a Prediction Cache with the given capacity (the paper
// uses 128).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	cells, shift := 2, uint(63)
	for cells < 2*capacity {
		cells, shift = cells*2, shift-1
	}
	c := &Cache{
		cap:     capacity,
		entries: make([]Entry, capacity),
		used:    make([]bool, capacity),
		index:   make([]int32, cells),
		shift:   shift,
	}
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, i)
	}
	return c
}

// Len returns the number of live entries.
func (c *Cache) Len() int { return c.cap - len(c.free) }

// Write installs a prediction. If the cache is full it first reclaims the
// entry with the smallest Seq (the one that will expire soonest); entries
// never block writes, matching the paper's observation that aggressive
// de-allocation keeps 128 entries sufficient.
func (c *Cache) Write(e Entry) {
	c.Stats.Writes++
	if cell := c.lookup(e.Ctx, e.PathID, e.Seq); cell >= 0 {
		c.Stats.Overwrites++
		c.entries[c.index[cell]-1] = e
		return
	}
	var slot int
	if len(c.free) > 0 {
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		// Evict the entry closest to expiry.
		victim := -1
		for i := range c.entries {
			if !c.used[i] {
				continue
			}
			if victim == -1 || c.entries[i].Seq < c.entries[victim].Seq {
				victim = i
			}
		}
		c.Stats.Evictions++
		v := &c.entries[victim]
		c.unlink(c.lookup(v.Ctx, v.PathID, v.Seq))
		slot = victim
	}
	c.entries[slot] = e
	c.used[slot] = true
	cell := c.home(e.Ctx, e.PathID, e.Seq)
	for c.index[cell] != 0 {
		cell = (cell + 1) & (len(c.index) - 1)
	}
	c.index[cell] = int32(slot + 1)
}

// Consume probes the cache at fetch time for the branch instance
// (ctx, id, seq). A hit removes and returns the entry: each prediction
// targets exactly one dynamic instance.
func (c *Cache) Consume(ctx uint8, id path.ID, seq uint64) (Entry, bool) {
	cell := c.lookup(ctx, id, seq)
	if cell < 0 {
		c.Stats.Misses++
		return Entry{}, false
	}
	c.Stats.Hits++
	e := c.entries[c.index[cell]-1]
	c.release(cell)
	return e, true
}

// Remove deletes the entry for (ctx, id, seq) if present, returning
// whether it existed. The SSMT core uses it when an aborted microthread's
// pending write must be cancelled.
func (c *Cache) Remove(ctx uint8, id path.ID, seq uint64) bool {
	cell := c.lookup(ctx, id, seq)
	if cell < 0 {
		return false
	}
	c.release(cell)
	return true
}

// Expire reclaims every entry of context ctx whose Seq is at or behind
// that context's current fetch sequence number; such entries can never
// match again. Other contexts' entries are untouched: under a shared
// cache each primary thread numbers its stream independently, so a fast
// thread's sweep must not judge a slow co-runner's entries stale.
func (c *Cache) Expire(ctx uint8, fetchSeq uint64) {
	if len(c.free) == c.cap {
		return
	}
	for i := range c.entries {
		e := &c.entries[i]
		if c.used[i] && e.Ctx == ctx && e.Seq <= fetchSeq {
			c.Stats.Expired++
			c.release(c.lookup(e.Ctx, e.PathID, e.Seq))
		}
	}
}

// home returns the index cell where the probe for a key starts.
func (c *Cache) home(ctx uint8, id path.ID, seq uint64) int {
	h := (uint64(id) ^ seq*0x9E3779B97F4A7C15 ^ uint64(ctx)) * 0xBF58476D1CE4E5B9
	return int(h >> c.shift)
}

// lookup returns the index cell that holds the entry keyed
// (ctx, id, seq), or -1. The table is never full, so every probe ends at
// an empty cell.
func (c *Cache) lookup(ctx uint8, id path.ID, seq uint64) int {
	for cell := c.home(ctx, id, seq); ; cell = (cell + 1) & (len(c.index) - 1) {
		s := c.index[cell]
		if s == 0 {
			return -1
		}
		if e := &c.entries[s-1]; e.Seq == seq && e.PathID == id && e.Ctx == ctx {
			return cell
		}
	}
}

// release frees the slot that index cell points at.
func (c *Cache) release(cell int) {
	slot := int(c.index[cell] - 1)
	c.unlink(cell)
	c.used[slot] = false
	c.free = append(c.free, slot)
}

// unlink empties index cell i by backward shift: each later cell of the
// probe run moves into the hole when the hole lies on its own probe path,
// so every remaining key stays reachable from its home cell without
// tombstones.
func (c *Cache) unlink(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		e := &c.entries[c.index[j]-1]
		if h := c.home(e.Ctx, e.PathID, e.Seq); (j-h)&mask >= (j-i)&mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = 0
}
