package pcache

import (
	"math/rand"
	"testing"

	"dpbp/internal/path"
)

// refCache is the reference the Prediction Cache is checked against: the
// same slots, free-list order and victim rule (smallest Seq, lowest slot
// on ties), with every key found by a linear search instead of an index.
type refCache struct {
	entries []Entry
	used    []bool
	free    []int
	stats   Stats
}

func newRef(capacity int) *refCache {
	r := &refCache{entries: make([]Entry, capacity), used: make([]bool, capacity)}
	for i := capacity - 1; i >= 0; i-- {
		r.free = append(r.free, i)
	}
	return r
}

func (r *refCache) find(ctx uint8, id path.ID, seq uint64) int {
	for i, e := range r.entries {
		if r.used[i] && e.Ctx == ctx && e.PathID == id && e.Seq == seq {
			return i
		}
	}
	return -1
}

func (r *refCache) release(i int) {
	r.used[i] = false
	r.free = append(r.free, i)
}

func (r *refCache) write(e Entry) {
	r.stats.Writes++
	if i := r.find(e.Ctx, e.PathID, e.Seq); i >= 0 {
		r.stats.Overwrites++
		r.entries[i] = e
		return
	}
	slot := -1
	if n := len(r.free); n > 0 {
		slot = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		// Every slot is live when the free list is empty.
		for i := range r.entries {
			if slot < 0 || r.entries[i].Seq < r.entries[slot].Seq {
				slot = i
			}
		}
		r.stats.Evictions++
	}
	r.entries[slot] = e
	r.used[slot] = true
}

func (r *refCache) consume(ctx uint8, id path.ID, seq uint64) (Entry, bool) {
	i := r.find(ctx, id, seq)
	if i < 0 {
		r.stats.Misses++
		return Entry{}, false
	}
	r.stats.Hits++
	e := r.entries[i]
	r.release(i)
	return e, true
}

func (r *refCache) remove(ctx uint8, id path.ID, seq uint64) bool {
	i := r.find(ctx, id, seq)
	if i >= 0 {
		r.release(i)
	}
	return i >= 0
}

func (r *refCache) expire(ctx uint8, fetchSeq uint64) {
	for i, e := range r.entries {
		if r.used[i] && e.Ctx == ctx && e.Seq <= fetchSeq {
			r.stats.Expired++
			r.release(i)
		}
	}
}

// TestCacheMatchesReference drives the cache and the reference through
// seeded random sequences of Write, Consume, Remove and Expire over two
// contexts, and compares every return value, Len, Stats and the slot
// each live entry occupies after every step. Seqs repeat across paths so
// the victim scan meets ties, and the key space is dense enough that the
// index's probe runs grow past one cell and lose cells from their middle.
func TestCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 16, 128} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			c, ref := New(capacity), newRef(capacity)
			ids := make([]path.ID, 3*capacity+2)
			for i := range ids {
				ids[i] = path.ID(rng.Uint64())
			}
			var fetch [2]uint64 // per-context fetch position
			var written []Entry // keys to probe again, so probes hit
			key := func() (uint8, path.ID, uint64) {
				if len(written) > 0 && rng.Intn(2) == 0 {
					e := written[rng.Intn(len(written))]
					return e.Ctx, e.PathID, e.Seq
				}
				ctx := uint8(rng.Intn(2))
				return ctx, ids[rng.Intn(len(ids))], fetch[ctx] + uint64(rng.Intn(8))
			}
			displaced := 0
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					ctx, id, seq := key()
					e := Entry{Ctx: ctx, PathID: id, Seq: seq, Taken: rng.Intn(2) == 0, Ready: uint64(step)}
					c.Write(e)
					ref.write(e)
					if len(written) < 2*capacity {
						written = append(written, e)
					} else {
						written[rng.Intn(len(written))] = e
					}
				case op < 7:
					ctx, id, seq := key()
					got, gotOK := c.Consume(ctx, id, seq)
					want, wantOK := ref.consume(ctx, id, seq)
					if got != want || gotOK != wantOK {
						t.Fatalf("cap %d seed %d step %d: Consume = %+v, %v; reference %+v, %v",
							capacity, seed, step, got, gotOK, want, wantOK)
					}
				case op < 9:
					ctx, id, seq := key()
					if got, want := c.Remove(ctx, id, seq), ref.remove(ctx, id, seq); got != want {
						t.Fatalf("cap %d seed %d step %d: Remove = %v, reference %v",
							capacity, seed, step, got, want)
					}
				default:
					ctx := uint8(rng.Intn(2))
					fetch[ctx] += uint64(rng.Intn(4))
					c.Expire(ctx, fetch[ctx])
					ref.expire(ctx, fetch[ctx])
				}
				if c.Len() != len(ref.entries)-len(ref.free) || c.Stats != ref.stats {
					t.Fatalf("cap %d seed %d step %d: Len %d Stats %+v; reference Len %d Stats %+v",
						capacity, seed, step, c.Len(), c.Stats, len(ref.entries)-len(ref.free), ref.stats)
				}
				displaced += checkSlots(t, c, ref)
			}
			if capacity > 1 && displaced == 0 {
				t.Errorf("cap %d seed %d: no key ever sat away from its home cell; the probe runs went untested",
					capacity, seed)
			}
		}
	}
}

// checkSlots fails the test unless every live entry of the reference
// occupies the same slot in the cache and the index finds it there, and
// the index holds nothing else. It returns how many keys sit away from
// their home cell.
func checkSlots(t *testing.T, c *Cache, ref *refCache) int {
	t.Helper()
	cells := 0
	for _, s := range c.index {
		if s != 0 {
			cells++
		}
	}
	if cells != c.Len() {
		t.Fatalf("index holds %d cells for %d live entries", cells, c.Len())
	}
	displaced := 0
	for i, e := range ref.entries {
		if c.used[i] != ref.used[i] {
			t.Fatalf("slot %d: used %v, reference %v", i, c.used[i], ref.used[i])
		}
		if !ref.used[i] {
			continue
		}
		if c.entries[i] != e {
			t.Fatalf("slot %d holds %+v, reference %+v", i, c.entries[i], e)
		}
		cell := c.lookup(e.Ctx, e.PathID, e.Seq)
		if cell < 0 || c.index[cell] != int32(i+1) {
			t.Fatalf("index does not find slot %d's key %+v", i, e)
		}
		if cell != c.home(e.Ctx, e.PathID, e.Seq) {
			displaced++
		}
	}
	return displaced
}
