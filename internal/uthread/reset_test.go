package uthread

import (
	"testing"

	"dpbp/internal/isa"
)

// TestResetDropsSpawnIndex: Reset keeps the spawn index's length for the
// next run, but every list must be nil after it. An emptied list that
// kept its backing array would keep the last run's routines reachable,
// and a surviving entry would spawn a routine that is no longer stored.
func TestResetDropsSpawnIndex(t *testing.T) {
	m := NewMicroRAM(4)
	a := &Routine{PathID: 1, SpawnPC: 2}
	b := &Routine{PathID: 2, SpawnPC: 5}
	for _, r := range []*Routine{a, b} {
		if !m.Install(r) {
			t.Fatal("install refused with free capacity")
		}
	}
	if got := m.SpawnCandidates(2); len(got) != 1 || got[0] != a {
		t.Fatalf("candidates at 2 = %v, want the installed routine", got)
	}
	if got := m.SpawnCandidates(3); got != nil {
		t.Fatalf("candidates at unmapped PC 3 = %v, want nil", got)
	}

	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("routines survived Reset: %d", m.Len())
	}
	if len(m.bySpawn) != 6 {
		t.Fatalf("Reset changed the spawn index length to %d, want 6", len(m.bySpawn))
	}
	for pc, list := range m.bySpawn {
		if list != nil {
			t.Errorf("spawn list at %d = %v after Reset, want nil", pc, list)
		}
	}
	for pc := isa.Addr(0); pc < 8; pc++ {
		for _, r := range m.SpawnCandidates(pc) {
			if r == a || r == b {
				t.Errorf("routine %d is still a candidate at %d after Reset", r.PathID, pc)
			}
		}
	}
}
