package cpu

import "dpbp/internal/path"

// pathMap is an open-addressed hash set of path.IDs, built for the
// promotion hot path: the promoted sets are probed for every terminating
// branch, and a built-in map's hashing and bucket chasing showed up
// prominently in CPU profiles of the figure sweeps. Linear probing over
// flat arrays keeps each probe to one multiply and (almost always) one
// cache line.
//
// The zero value is an empty set. clear keeps the backing arrays, so a
// reused Machine stops re-allocating its tables on every Reset. Deletion
// uses backward-shift compaction, so the table never accumulates
// tombstones and probes stay O(probe distance).
type pathMap struct {
	keys []path.ID
	live []bool
	n    int
}

// pathMapMinCap is the initial slot count of the first insertion. It must
// be a power of two; growth doubles it.
const pathMapMinCap = 64

// home returns the preferred slot of k. path.IDs are already shift-XOR
// hashes, but the Fibonacci multiply spreads their low bits for the mask.
func (m *pathMap) home(k path.ID) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(m.keys)-1)
}

// len returns the number of live entries.
func (m *pathMap) len() int { return m.n }

// clear empties the set, keeping capacity for reuse.
func (m *pathMap) clear() {
	if m.n == 0 {
		return
	}
	clear(m.live)
	m.n = 0
}

// has reports whether k is present.
func (m *pathMap) has(k path.ID) bool {
	if m.n == 0 {
		return false
	}
	mask := uint64(len(m.keys) - 1)
	for i := m.home(k); m.live[i]; i = (i + 1) & mask {
		if m.keys[i] == k {
			return true
		}
	}
	return false
}

// add inserts k; adding a present key is a no-op.
func (m *pathMap) add(k path.ID) {
	if len(m.keys) == 0 || (m.n+1)*4 > len(m.keys)*3 {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	i := m.home(k)
	for m.live[i] {
		if m.keys[i] == k {
			return
		}
		i = (i + 1) & mask
	}
	m.keys[i] = k
	m.live[i] = true
	m.n++
}

// delete removes k if present, backward-shifting the displaced cluster so
// probe chains stay contiguous.
func (m *pathMap) delete(k path.ID) {
	if m.n == 0 {
		return
	}
	mask := uint64(len(m.keys) - 1)
	i := m.home(k)
	for {
		if !m.live[i] {
			return
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	m.n--
	j := i
	for {
		m.live[i] = false
		// Find the next entry in the cluster that may legally move into
		// the hole at i: one whose home slot is not cyclically inside
		// (i, j].
		for {
			j = (j + 1) & mask
			if !m.live[j] {
				return
			}
			h := m.home(m.keys[j])
			if (j-h)&mask >= (j-i)&mask {
				break
			}
		}
		m.keys[i] = m.keys[j]
		m.live[i] = true
		i = j
	}
}

// grow rehashes into a table twice the size (or the minimum capacity).
func (m *pathMap) grow() {
	newCap := pathMapMinCap
	if len(m.keys) > 0 {
		newCap = len(m.keys) * 2
	}
	oldKeys, oldLive := m.keys, m.live
	m.keys = make([]path.ID, newCap)
	m.live = make([]bool, newCap)
	m.n = 0
	for i, ok := range oldLive {
		if ok {
			m.add(oldKeys[i])
		}
	}
}
