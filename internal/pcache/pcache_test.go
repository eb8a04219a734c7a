package pcache

import (
	"testing"
	"testing/quick"

	"dpbp/internal/path"
)

func e(id uint64, seq uint64) Entry {
	return Entry{PathID: path.ID(id), Seq: seq, Taken: true, Target: 42}
}

func TestWriteConsume(t *testing.T) {
	c := New(8)
	c.Write(e(1, 100))
	got, ok := c.Consume(0, path.ID(1), 100)
	if !ok || got.Target != 42 || !got.Taken {
		t.Fatalf("Consume = %+v, %v", got, ok)
	}
	// Consumed entries are gone.
	if _, ok := c.Consume(0, path.ID(1), 100); ok {
		t.Error("entry survived consumption")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestKeyIsPathAndSeq(t *testing.T) {
	c := New(8)
	c.Write(e(1, 100))
	if _, ok := c.Consume(0, path.ID(2), 100); ok {
		t.Error("matched wrong path")
	}
	if _, ok := c.Consume(0, path.ID(1), 101); ok {
		t.Error("matched wrong seq")
	}
	if _, ok := c.Consume(0, path.ID(1), 100); !ok {
		t.Error("right key missed")
	}
}

func TestOverwriteSameKey(t *testing.T) {
	c := New(8)
	c.Write(e(1, 100))
	upd := e(1, 100)
	upd.Target = 77
	c.Write(upd)
	if c.Stats.Overwrites != 1 {
		t.Errorf("Overwrites = %d", c.Stats.Overwrites)
	}
	got, _ := c.Consume(0, path.ID(1), 100)
	if got.Target != 77 {
		t.Errorf("Target = %d, want updated 77", got.Target)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after consume", c.Len())
	}
}

func TestEvictionPrefersOldestSeq(t *testing.T) {
	c := New(2)
	c.Write(e(1, 10))
	c.Write(e(2, 20))
	c.Write(e(3, 30)) // evicts seq 10
	if c.Stats.Evictions != 1 {
		t.Errorf("Evictions = %d", c.Stats.Evictions)
	}
	if _, ok := c.Consume(0, path.ID(1), 10); ok {
		t.Error("oldest-seq entry not evicted")
	}
	if _, ok := c.Consume(0, path.ID(2), 20); !ok {
		t.Error("younger entry evicted")
	}
	if _, ok := c.Consume(0, path.ID(3), 30); !ok {
		t.Error("new entry missing")
	}
}

func TestExpire(t *testing.T) {
	c := New(8)
	c.Write(e(1, 10))
	c.Write(e(2, 20))
	c.Write(e(3, 30))
	c.Expire(0, 20) // reclaims seq 10 and 20
	if c.Stats.Expired != 2 {
		t.Errorf("Expired = %d", c.Stats.Expired)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if _, ok := c.Consume(0, path.ID(3), 30); !ok {
		t.Error("live entry expired")
	}
}

func TestSmallCacheSuffices(t *testing.T) {
	// With eager expiry, a small cache handles a long stream of writes
	// whose lifetimes are short — the paper's 128-entry claim.
	c := New(16)
	evBefore := func() uint64 { return c.Stats.Evictions }()
	for seq := uint64(0); seq < 10_000; seq++ {
		c.Write(e(seq%64, seq))
		if seq >= 8 {
			c.Expire(0, seq-8)
		}
	}
	if c.Stats.Evictions-evBefore > 100 {
		t.Errorf("%d evictions despite eager expiry", c.Stats.Evictions)
	}
}

func TestFreeListNeverLeaksQuick(t *testing.T) {
	// Property: live entries + free slots == capacity at all times.
	c := New(8)
	f := func(ops []uint8) bool {
		for _, op := range ops {
			id := uint64(op % 4)
			seq := uint64(op)
			switch {
			case op%3 == 0:
				c.Write(e(id, seq))
			case op%3 == 1:
				c.Consume(0, path.ID(id), seq)
			default:
				c.Expire(0, uint64(op)/2)
			}
			if c.Len()+len(c.free) != c.cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCapacityOne(t *testing.T) {
	c := New(1)
	c.Write(e(1, 1))
	c.Write(e(2, 2))
	if _, ok := c.Consume(0, path.ID(2), 2); !ok {
		t.Error("capacity-1 cache lost its only entry")
	}
}

func TestRemove(t *testing.T) {
	c := New(8)
	c.Write(e(1, 10))
	if !c.Remove(0, path.ID(1), 10) {
		t.Error("Remove missed a live entry")
	}
	if c.Remove(0, path.ID(1), 10) {
		t.Error("Remove found a removed entry")
	}
	if _, ok := c.Consume(0, path.ID(1), 10); ok {
		t.Error("removed entry still consumable")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestReadyFieldRoundTrips(t *testing.T) {
	c := New(4)
	ent := Entry{PathID: 3, Seq: 9, Taken: true, Target: 55, Ready: 1234}
	c.Write(ent)
	got, ok := c.Consume(0, path.ID(3), 9)
	if !ok || got.Ready != 1234 {
		t.Errorf("Ready lost: %+v", got)
	}
}

// TestContextsDoNotCross pins the SMT fix for this package's latent
// single-thread assumption: entries used to be keyed by (PathID, Seq)
// alone, so under a shared cache two primary contexts writing the same
// path at the same local sequence number silently overwrote each other.
// Each context's entries must be invisible to the other.
func TestContextsDoNotCross(t *testing.T) {
	c := New(8)
	a := Entry{Ctx: 0, PathID: 5, Seq: 100, Target: 10}
	b := Entry{Ctx: 1, PathID: 5, Seq: 100, Target: 20}
	c.Write(a)
	c.Write(b)
	if c.Stats.Overwrites != 0 {
		t.Fatalf("contexts collided: Overwrites = %d", c.Stats.Overwrites)
	}
	if _, ok := c.Consume(1, path.ID(5), 101); ok {
		t.Error("wrong seq matched across contexts")
	}
	if got, ok := c.Consume(1, path.ID(5), 100); !ok || got.Target != 20 {
		t.Errorf("ctx 1 entry = %+v, %v", got, ok)
	}
	if got, ok := c.Consume(0, path.ID(5), 100); !ok || got.Target != 10 {
		t.Errorf("ctx 0 entry = %+v, %v", got, ok)
	}
}

// TestExpireIsPerContext pins the second half of the same fix: each SMT
// primary numbers its stream from zero, so a fast thread's expiry sweep
// used to reclaim a slower co-runner's still-future entries.
func TestExpireIsPerContext(t *testing.T) {
	c := New(8)
	c.Write(Entry{Ctx: 1, PathID: 7, Seq: 50, Target: 9})
	c.Expire(0, 1_000) // thread 0 is far ahead; 50 is in thread 1's future
	if c.Stats.Expired != 0 || c.Len() != 1 {
		t.Fatalf("context 0's sweep reclaimed context 1's future entry: %+v", c.Stats)
	}
	if _, ok := c.Consume(1, path.ID(7), 50); !ok {
		t.Error("context 1's entry gone")
	}
	c.Write(Entry{Ctx: 1, PathID: 8, Seq: 60, Target: 9})
	c.Expire(1, 60)
	if c.Stats.Expired != 1 || c.Len() != 0 {
		t.Errorf("own-context expiry failed: %+v", c.Stats)
	}
}

func TestExpireBoundaryIsInclusive(t *testing.T) {
	c := New(4)
	c.Write(e(1, 10))
	c.Write(e(2, 11))
	c.Expire(0, 10)
	if _, ok := c.Consume(0, path.ID(1), 10); ok {
		t.Error("entry at the expiry boundary survived")
	}
	if _, ok := c.Consume(0, path.ID(2), 11); !ok {
		t.Error("entry beyond the boundary expired")
	}
}
