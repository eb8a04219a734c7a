package pathcache

import (
	"math/rand"
	"testing"

	"dpbp/internal/path"
)

// arrayEntry and arrayCache are the Path Cache's former entry-array layout:
// each set a slice of whole entries, Path_Id included, scanned entry by
// entry. TestTagLayoutMatchesEntryArray holds the tag layout to it.
type arrayEntry struct {
	id        path.ID
	valid     bool
	occ       uint32
	mis       uint32
	difficult bool
	promoted  bool
	lru       uint64
}

type arrayCache struct {
	cfg  Config
	sets [][]arrayEntry
	tick uint64
}

func newArrayCache(c *Cache) *arrayCache {
	r := &arrayCache{cfg: c.cfg, sets: make([][]arrayEntry, c.mask+1)}
	for i := range r.sets {
		r.sets[i] = make([]arrayEntry, c.cfg.Ways)
	}
	return r
}

func (r *arrayCache) set(id path.ID) []arrayEntry { return r.sets[uint64(id)%uint64(len(r.sets))] }

func (r *arrayCache) lookup(id path.ID) *arrayEntry {
	set := r.set(id)
	for i := range set {
		if set[i].valid && set[i].id == id {
			return &set[i]
		}
	}
	return nil
}

func (r *arrayCache) victim(id path.ID) *arrayEntry {
	set := r.set(id)
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	best := -1
	for i := range set {
		if !r.cfg.PlainLRU && set[i].difficult {
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
	return &set[best]
}

// observe is Observe's entry handling: allocate on a mispredicted miss,
// touch, count and train.
func (r *arrayCache) observe(id path.ID, miss bool) {
	r.tick++
	e := r.lookup(id)
	if e == nil {
		if !miss && !r.cfg.AllocateAlways {
			return
		}
		e = r.victim(id)
		*e = arrayEntry{id: id, valid: true, lru: r.tick}
	} else {
		e.lru = r.tick
	}
	e.occ++
	if miss {
		e.mis++
	}
	if int(e.occ) >= r.cfg.TrainInterval {
		e.difficult = float64(e.mis)/float64(e.occ) > r.cfg.Threshold
		e.occ, e.mis = 0, 0
		if !e.difficult {
			e.promoted = false
		}
	}
}

// TestTagLayoutMatchesEntryArray drives the Path Cache and the entry-array
// reference with the same random observations and promotions, over more
// paths than the cache holds, and compares after each operation which
// way every lookup finds, which way a victim search picks, and each
// way's state.
func TestTagLayoutMatchesEntryArray(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 64, Ways: 8, TrainInterval: 4, Threshold: 0.10},
		{Entries: 64, Ways: 8, TrainInterval: 4, Threshold: 0.10, PlainLRU: true},
		{Entries: 48, Ways: 4, TrainInterval: 8, Threshold: 0.30, AllocateAlways: true},
	} {
		c := New(cfg)
		ref := newArrayCache(c)
		rng := rand.New(rand.NewSource(7))
		replacements := 0
		for op := 0; op < 20_000; op++ {
			id := path.ID(rng.Intn(200))
			switch rng.Intn(4) {
			case 0:
				ok := rng.Intn(2) == 0
				c.SetPromoted(id, ok)
				if e := ref.lookup(id); e != nil {
					e.promoted = ok
				}
			default:
				miss := rng.Intn(3) == 0
				c.Observe(id, miss)
				ref.observe(id, miss)
			}
			probe := path.ID(rng.Intn(200))
			want := -1
			if e := ref.lookup(probe); e != nil {
				want = wayOf(ref, probe, e)
			}
			if got := c.lookup(probe); got != want {
				t.Fatalf("%+v op %d: lookup(%d) = %d, entry-array layout %d", cfg, op, probe, got, want)
			}
			v, replaced := c.victim(probe)
			if want := wayOf(ref, probe, ref.victim(probe)); v != want {
				t.Fatalf("%+v op %d: victim(%d) = %d, entry-array layout %d", cfg, op, probe, v, want)
			}
			if replaced {
				replacements++
			}
			for s, set := range ref.sets {
				for w, e := range set {
					i := s*cfg.Ways + w
					m := c.metas[i]
					got := arrayEntry{id: c.ids[i], valid: m.valid, occ: m.occ, mis: m.mis,
						difficult: m.difficult, promoted: m.promoted, lru: m.lru}
					if !e.valid {
						got.id = e.id // an invalid way's Path_Id is not part of its state
					}
					if got != e {
						t.Fatalf("%+v op %d: way %d = %+v, entry-array layout %+v", cfg, op, i, got, e)
					}
				}
			}
		}
		if replacements == 0 || c.Stats.Replacements == 0 {
			t.Errorf("%+v: vacuous: no replacement", cfg)
		}
	}
}

// wayOf returns e's index in the flat numbering the tag layout uses.
func wayOf(r *arrayCache, id path.ID, e *arrayEntry) int {
	set := r.set(id)
	for w := range set {
		if &set[w] == e {
			return int(uint64(id)%uint64(len(r.sets)))*r.cfg.Ways + w
		}
	}
	return -1
}
