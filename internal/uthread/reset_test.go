package uthread

import "testing"

// TestResetDropsSpawnIndex: Reset keeps the spawn index's storage for the
// next run, but no count may survive it, or the probe would claim a spawn
// that no routine makes.
func TestResetDropsSpawnIndex(t *testing.T) {
	m := NewMicroRAM(4)
	if !m.Install(&Routine{PathID: 1, SpawnPC: 2}) {
		t.Fatal("install refused with free capacity")
	}
	if !m.HasSpawn(2) {
		t.Fatal("probe missed an installed spawn PC")
	}
	if m.HasSpawn(5) {
		t.Fatal("probe claimed a spawn at an unmapped PC")
	}

	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("routines survived Reset: %d", m.Len())
	}
	if m.HasSpawn(2) {
		t.Fatal("stale spawn index survived Reset")
	}
}
