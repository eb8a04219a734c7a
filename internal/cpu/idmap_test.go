package cpu

import (
	"testing"

	"dpbp/internal/path"
)

// lcg is a tiny deterministic generator for exercising the map; the
// simulator's determinism contract keeps math/rand out of this package.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// TestPathMapMatchesBuiltin drives a pathMap and a built-in map through
// the same deterministic op sequence and requires identical observable
// state throughout, including after clear-and-reuse.
func TestPathMapMatchesBuiltin(t *testing.T) {
	var pm pathMap
	ref := map[path.ID]uint64{}
	rng := lcg(12345)

	check := func(step int, k path.ID) {
		t.Helper()
		wantV, wantOK := ref[k]
		gotV, gotOK := pm.lookup(k)
		if gotOK != wantOK || (wantOK && gotV != wantV) {
			t.Fatalf("step %d: lookup(%d) = (%d,%v), want (%d,%v)", step, k, gotV, gotOK, wantV, wantOK)
		}
		if pm.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, pm.len(), len(ref))
		}
	}

	for round := 0; round < 3; round++ {
		for i := 0; i < 20000; i++ {
			// Small key space forces collisions, overwrites, and
			// delete-of-present cases.
			k := path.ID(rng.next() % 512)
			switch rng.next() % 4 {
			case 0, 1:
				v := rng.next()
				pm.set(k, v)
				ref[k] = v
			case 2:
				pm.delete(k)
				delete(ref, k)
			case 3:
				// Pure lookup; checked below.
			}
			check(i, k)
			probe := path.ID(rng.next() % 512)
			check(i, probe)
		}
		// clear keeps capacity but must empty the map.
		pm.clear()
		ref = map[path.ID]uint64{}
		if pm.len() != 0 || pm.has(path.ID(1)) {
			t.Fatalf("round %d: map not empty after clear", round)
		}
	}
}

// TestPathMapZeroValue verifies the zero value works for every operation.
func TestPathMapZeroValue(t *testing.T) {
	var pm pathMap
	if v, ok := pm.lookup(0); ok || v != 0 || pm.has(0) || pm.len() != 0 {
		t.Fatal("zero-value pathMap not empty")
	}
	pm.delete(7) // no-op
	pm.clear()   // no-op
	pm.set(0, 42)
	if v, ok := pm.lookup(0); !ok || v != 42 || !pm.has(0) || pm.len() != 1 {
		t.Fatal("zero key not stored")
	}
}

// TestPathMapGrowth inserts past several doublings and verifies every key
// survives rehashing.
func TestPathMapGrowth(t *testing.T) {
	var pm pathMap
	const n = 10000
	for i := 0; i < n; i++ {
		pm.set(path.ID(i*2654435761), uint64(i))
	}
	if pm.len() != n {
		t.Fatalf("len = %d, want %d", pm.len(), n)
	}
	for i := 0; i < n; i++ {
		if got, ok := pm.lookup(path.ID(i * 2654435761)); !ok || got != uint64(i) {
			t.Fatalf("key %d: got (%d,%v), want (%d,true)", i, got, ok, i)
		}
	}
}
