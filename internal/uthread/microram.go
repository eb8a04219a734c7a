package uthread

import (
	"slices"
	"sort"

	"dpbp/internal/isa"
	"dpbp/internal/path"
)

// MicroRAM stores constructed microthread routines (Section 4.3.1). Its
// capacity bounds the number of concurrently promoted paths (the paper
// uses 8K). Install refuses when full; the Path Cache then leaves the
// path unpromoted and retries later, by which time demotions may have
// freed space.
type MicroRAM struct {
	cap      int //dpbp:reset-skip capacity, fixed at construction
	routines map[path.ID]*Routine
	// bySpawn[pc] lists the routines that spawn at pc, so the fetch
	// loop's per-instruction probe is one slice read. Install grows it
	// to cover each routine's spawn PC; Reset empties every list and
	// keeps the length for the next run.
	bySpawn [][]*Routine
	rebuild map[path.ID]bool

	// Stats.
	Installs uint64
	Refusals uint64
	Removals uint64
}

// NewMicroRAM returns a MicroRAM holding up to capacity routines.
func NewMicroRAM(capacity int) *MicroRAM {
	if capacity < 1 {
		capacity = 1
	}
	return &MicroRAM{
		cap:      capacity,
		routines: make(map[path.ID]*Routine),
		rebuild:  make(map[path.ID]bool),
	}
}

// Len returns the number of stored routines.
func (m *MicroRAM) Len() int { return len(m.routines) }

// Cap returns the capacity.
func (m *MicroRAM) Cap() int { return m.cap }

// Install stores a routine, replacing any previous routine for the same
// path. It reports whether the routine was accepted (false when full).
func (m *MicroRAM) Install(r *Routine) bool {
	if old, ok := m.routines[r.PathID]; ok {
		m.removeSpawnIndex(old)
	} else if len(m.routines) >= m.cap {
		m.Refusals++
		return false
	}
	m.routines[r.PathID] = r
	if n := int(r.SpawnPC) + 1; n > len(m.bySpawn) {
		m.bySpawn = append(m.bySpawn, make([][]*Routine, n-len(m.bySpawn))...)
	}
	m.bySpawn[r.SpawnPC] = append(m.bySpawn[r.SpawnPC], r)
	delete(m.rebuild, r.PathID)
	m.Installs++
	return true
}

// Lookup returns the routine for a path, or nil.
func (m *MicroRAM) Lookup(id path.ID) *Routine { return m.routines[id] }

// SpawnCandidates returns the routines whose spawn point is pc, or nil
// when none does. The returned slice is owned by the MicroRAM; callers
// must not modify it.
func (m *MicroRAM) SpawnCandidates(pc isa.Addr) []*Routine {
	if int(pc) >= len(m.bySpawn) {
		return nil
	}
	return m.bySpawn[pc]
}

// Remove deletes the routine for a path (demotion).
func (m *MicroRAM) Remove(id path.ID) {
	r, ok := m.routines[id]
	if !ok {
		return
	}
	m.removeSpawnIndex(r)
	delete(m.routines, id)
	delete(m.rebuild, id)
	m.Removals++
}

// removeSpawnIndex drops r from its spawn list. slices.Delete zeroes the
// vacated tail slot, so the list's spare capacity keeps no routine alive.
func (m *MicroRAM) removeSpawnIndex(r *Routine) {
	list := m.bySpawn[r.SpawnPC]
	if i := slices.Index(list, r); i >= 0 {
		m.bySpawn[r.SpawnPC] = slices.Delete(list, i, i+1)
	}
}

// MarkRebuild flags a routine for reconstruction after a memory-dependence
// violation (Section 4.2.4). The SSMT core rebuilds it the next time the
// path's terminating branch retires.
func (m *MicroRAM) MarkRebuild(id path.ID) {
	if _, ok := m.routines[id]; ok {
		m.rebuild[id] = true
	}
}

// NeedsRebuild reports and clears the rebuild flag for a path.
func (m *MicroRAM) NeedsRebuild(id path.ID) bool {
	if m.rebuild[id] {
		delete(m.rebuild, id)
		return true
	}
	return false
}

// Routines returns all stored routines in Path_Id order, for statistics
// (Figure 8). The explicit order keeps every consumer — averages over
// floats, rendered listings — bit-identical across runs.
func (m *MicroRAM) Routines() []*Routine {
	out := make([]*Routine, 0, len(m.routines))
	for _, r := range m.routines { //dpbplint:ignore simdeterminism collection is sorted by PathID below
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PathID < out[j].PathID })
	return out
}
