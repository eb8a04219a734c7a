package pathcache

import (
	"dpbp/internal/obs"
	"testing"

	"dpbp/internal/path"
)

func small() Config {
	return Config{Entries: 32, Ways: 4, TrainInterval: 8, Threshold: 0.10}
}

func TestAllocateOnMispredictOnly(t *testing.T) {
	c := New(small())
	c.Observe(path.ID(1), false)
	if c.Stats.Allocations != 0 || c.Stats.AllocsAvoided != 1 {
		t.Errorf("correctly predicted miss allocated: %+v", c.Stats)
	}
	c.Observe(path.ID(1), true)
	if c.Stats.Allocations != 1 {
		t.Errorf("mispredicted miss not allocated: %+v", c.Stats)
	}
	// Now it hits.
	c.Observe(path.ID(1), false)
	if c.Stats.Hits != 1 {
		t.Errorf("hit not counted: %+v", c.Stats)
	}
}

func TestAllocateAlwaysAblation(t *testing.T) {
	cfg := small()
	cfg.AllocateAlways = true
	c := New(cfg)
	c.Observe(path.ID(1), false)
	if c.Stats.Allocations != 1 {
		t.Error("AllocateAlways did not allocate on correct prediction")
	}
}

func TestDifficultBitAfterInterval(t *testing.T) {
	c := New(small())
	id := path.ID(7)
	// 8 occurrences, 4 mispredicted: rate 0.5 > 0.10 -> difficult.
	for i := 0; i < 8; i++ {
		c.Observe(id, i%2 == 0)
	}
	if !c.Difficult(id) {
		t.Fatal("path with 50% misprediction not difficult after interval")
	}
	if c.Stats.DifficultSet != 1 {
		t.Errorf("DifficultSet = %d", c.Stats.DifficultSet)
	}
	// Next interval with no mispredictions clears the bit.
	for i := 0; i < 8; i++ {
		c.Observe(id, false)
	}
	if c.Difficult(id) {
		t.Fatal("difficult bit not cleared after easy interval")
	}
	if c.Stats.DifficultCleared != 1 {
		t.Errorf("DifficultCleared = %d", c.Stats.DifficultCleared)
	}
}

func TestEasyPathNeverDifficult(t *testing.T) {
	c := New(small())
	id := path.ID(9)
	c.Observe(id, true) // allocate
	for i := 0; i < 100; i++ {
		c.Observe(id, false)
	}
	// One early misprediction out of 8 in the first interval is 12.5% > T,
	// so it may be difficult after interval 1, but later intervals clear.
	if c.Difficult(id) {
		t.Error("long-easy path still difficult")
	}
}

func TestPromotionDemotionFlow(t *testing.T) {
	c := New(small())
	id := path.ID(11)
	var promoted bool
	for i := 0; i < 8; i++ {
		ev := c.Observe(id, true)
		if ev.Promote {
			promoted = true
			c.SetPromoted(id, true)
		}
	}
	if !promoted {
		t.Fatal("all-mispredicted path never requested promotion")
	}
	if !c.Promoted(id) {
		t.Fatal("Promoted bit not set")
	}
	if c.Stats.Promotions != 1 {
		t.Errorf("Promotions = %d", c.Stats.Promotions)
	}
	// While promoted and still difficult, no duplicate requests.
	ev := c.Observe(id, true)
	if ev.Promote {
		t.Error("promotion re-requested while promoted")
	}
	// A clean interval demotes.
	var demoted bool
	for i := 0; i < 16; i++ {
		if c.Observe(id, false).Demote {
			demoted = true
		}
	}
	if !demoted {
		t.Fatal("no demotion after easy intervals")
	}
	if c.Promoted(id) {
		t.Error("Promoted bit survived demotion")
	}
	if c.Stats.Demotions != 1 {
		t.Errorf("Demotions = %d", c.Stats.Demotions)
	}
}

func TestBuilderRefusalRetries(t *testing.T) {
	c := New(small())
	id := path.ID(13)
	for i := 0; i < 8; i++ {
		c.Observe(id, true)
	}
	ev := c.Observe(id, true)
	if !ev.Promote {
		t.Fatal("expected promotion request")
	}
	c.SetPromoted(id, false) // builder busy
	ev = c.Observe(id, true)
	if !ev.Promote {
		t.Error("promotion request should repeat after builder refusal")
	}
}

func TestLRUPrefersNonDifficultVictims(t *testing.T) {
	// 1 set x 4 ways.
	cfg := Config{Entries: 4, Ways: 4, TrainInterval: 4, Threshold: 0.10}
	c := New(cfg)
	// Fill 4 ways; make ids 1 and 2 difficult.
	for id := path.ID(1); id <= 4; id++ {
		for i := 0; i < 4; i++ {
			c.Observe(id, id <= 2)
		}
	}
	if !c.Difficult(1) || !c.Difficult(2) || c.Difficult(3) || c.Difficult(4) {
		t.Fatal("setup wrong")
	}
	// Touch 3 so 4 is LRU among non-difficult.
	c.Observe(path.ID(3), false)
	// Insert a new mispredicted path; victim should be 4, not 1/2.
	c.Observe(path.ID(99), true)
	if !c.Difficult(1) || !c.Difficult(2) {
		t.Error("difficult entry evicted despite easy victims")
	}
	if c.lookup(path.ID(4)) >= 0 {
		t.Error("expected id 4 to be evicted")
	}
	if c.lookup(path.ID(99)) < 0 {
		t.Error("new path not inserted")
	}
}

func TestLRUFallbackWhenAllDifficult(t *testing.T) {
	cfg := Config{Entries: 2, Ways: 2, TrainInterval: 2, Threshold: 0.10}
	c := New(cfg)
	for id := path.ID(1); id <= 2; id++ {
		c.Observe(id, true)
		c.Observe(id, true)
	}
	if !c.Difficult(1) || !c.Difficult(2) {
		t.Fatal("setup wrong")
	}
	// Must still be able to allocate.
	c.Observe(path.ID(50), true)
	if c.lookup(path.ID(50)) < 0 {
		t.Error("allocation failed with all-difficult set")
	}
	if c.Stats.Replacements != 1 {
		t.Errorf("Replacements = %d", c.Stats.Replacements)
	}
}

func TestPlainLRUAblation(t *testing.T) {
	cfg := Config{Entries: 2, Ways: 2, TrainInterval: 2, Threshold: 0.10, PlainLRU: true}
	c := New(cfg)
	// id 1 difficult and old; id 2 easy and recent.
	c.Observe(path.ID(1), true)
	c.Observe(path.ID(1), true)
	c.Observe(path.ID(2), true)
	c.Observe(path.ID(2), false)
	// Plain LRU evicts id 1 (oldest) even though difficult.
	c.Observe(path.ID(50), true)
	if c.lookup(path.ID(1)) >= 0 {
		t.Error("plain LRU should evict oldest regardless of difficulty")
	}
}

func TestDifficultCountAndAvoidedFraction(t *testing.T) {
	c := New(small())
	for id := path.ID(1); id <= 3; id++ {
		for i := 0; i < 8; i++ {
			c.Observe(id, true)
		}
	}
	if got := c.DifficultCount(); got != 3 {
		t.Errorf("DifficultCount = %d, want 3", got)
	}
	c.Observe(path.ID(100), false) // avoided alloc
	if f := c.AllocAvoidedFraction(); f <= 0 || f > 1 {
		t.Errorf("AllocAvoidedFraction = %f", f)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	c := New(Config{})
	if c.Capacity() == 0 {
		t.Fatal("zero config produced empty cache")
	}
	// Interval defaults to 32; threshold 0 means any misprediction makes
	// a path difficult, which is a valid (if aggressive) setting.
	id := path.ID(5)
	for i := 0; i < 32; i++ {
		c.Observe(id, true)
	}
	if !c.Difficult(id) {
		t.Error("default interval did not trigger at 32")
	}
}

func TestCapacityRoundsDownToPowerOfTwo(t *testing.T) {
	cases := []struct {
		entries, ways, wantSets, wantCap int
	}{
		{8192, 8, 1024, 8192},   // paper default: already a power of two
		{6144, 8, 512, 4096},    // 6K/8-way: 768 sets rounds DOWN, not up to 1024
		{4, 4, 1, 4},            // single set
		{3, 8, 1, 8},            // fewer entries than ways: min one set
		{100, 4, 16, 64},        // 25 sets -> 16
		{1 << 10, 2, 512, 1024}, // power of two stays exact
	}
	for _, tc := range cases {
		c := New(Config{Entries: tc.entries, Ways: tc.ways, TrainInterval: 8, Threshold: 0.10})
		if sets := int(c.mask) + 1; sets != tc.wantSets {
			t.Errorf("Entries=%d Ways=%d: sets = %d, want %d", tc.entries, tc.ways, sets, tc.wantSets)
		}
		if got := c.Capacity(); got != tc.wantCap {
			t.Errorf("Entries=%d Ways=%d: Capacity = %d, want %d", tc.entries, tc.ways, got, tc.wantCap)
		}
		if c.Capacity() > tc.entries && tc.entries >= tc.ways {
			t.Errorf("Entries=%d: effective capacity %d exceeds configured entries", tc.entries, c.Capacity())
		}
	}
}

func TestPromotionsRejectedCounted(t *testing.T) {
	c := New(small())
	id := path.ID(13)
	for i := 0; i < 8; i++ {
		c.Observe(id, true)
	}
	c.SetPromoted(id, false) // builder busy
	c.SetPromoted(id, false) // still busy
	if c.Stats.PromotionsRejected != 2 {
		t.Errorf("PromotionsRejected = %d, want 2", c.Stats.PromotionsRejected)
	}
	if c.Stats.Demotions != 0 {
		t.Errorf("refusals on a non-promoted entry counted demotions: %d", c.Stats.Demotions)
	}
	c.SetPromoted(path.ID(999), false) // unknown path: no-op
	if c.Stats.PromotionsRejected != 2 {
		t.Error("refusal counted for a path not in the cache")
	}
}

func TestRejectionOnPromotedEntryCountsDemotion(t *testing.T) {
	c := New(small())
	id := path.ID(17)
	for i := 0; i < 8; i++ {
		c.Observe(id, true)
	}
	c.SetPromoted(id, true)
	if c.Stats.Promotions != 1 || !c.Promoted(id) {
		t.Fatal("setup wrong")
	}
	// A refusal that clears a set Promoted bit is both a rejection and a
	// demotion: the bit transitions 1->0.
	c.SetPromoted(id, false)
	if c.Promoted(id) {
		t.Error("Promoted bit survived refusal")
	}
	if c.Stats.PromotionsRejected != 1 {
		t.Errorf("PromotionsRejected = %d, want 1", c.Stats.PromotionsRejected)
	}
	if c.Stats.Demotions != 1 {
		t.Errorf("Demotions = %d, want 1 (bit transitioned 1->0)", c.Stats.Demotions)
	}
	// Re-promoting counts a fresh promotion.
	c.SetPromoted(id, true)
	if c.Stats.Promotions != 2 {
		t.Errorf("Promotions = %d, want 2", c.Stats.Promotions)
	}
}

func TestVictimPrefersInvalidSlot(t *testing.T) {
	cfg := Config{Entries: 4, Ways: 4, TrainInterval: 4, Threshold: 0.10}
	c := New(cfg)
	c.Observe(path.ID(1), true)
	v, replaced := c.victim(path.ID(2))
	if replaced {
		t.Error("victim reported replacement with invalid slots free")
	}
	if v < 0 || c.metas[v].valid {
		t.Error("victim did not pick an invalid slot")
	}
}

func TestVictimAllDifficultFallback(t *testing.T) {
	cfg := Config{Entries: 4, Ways: 4, TrainInterval: 2, Threshold: 0.10}
	c := New(cfg)
	// Fill all 4 ways with difficult entries, in id order, so id 1 holds
	// the oldest lru tick.
	for id := path.ID(1); id <= 4; id++ {
		c.Observe(id, true)
		c.Observe(id, true)
	}
	for id := path.ID(1); id <= 4; id++ {
		if !c.Difficult(id) {
			t.Fatal("setup wrong")
		}
	}
	v, replaced := c.victim(path.ID(50))
	if !replaced {
		t.Error("full set must report a replacement")
	}
	if c.ids[v] != path.ID(1) {
		t.Errorf("all-difficult fallback picked id %d, want overall LRU id 1", c.ids[v])
	}
}

func TestVictimPlainLRUIgnoresDifficulty(t *testing.T) {
	cfg := Config{Entries: 4, Ways: 4, TrainInterval: 2, Threshold: 0.10, PlainLRU: true}
	c := New(cfg)
	// id 1: difficult, oldest. ids 2-4: easy, newer.
	c.Observe(path.ID(1), true)
	c.Observe(path.ID(1), true)
	for id := path.ID(2); id <= 4; id++ {
		c.Observe(id, true)
		c.Observe(id, false)
	}
	v, replaced := c.victim(path.ID(50))
	if !replaced || c.ids[v] != path.ID(1) {
		t.Errorf("PlainLRU victim = id %d (replaced=%v), want oldest id 1", c.ids[v], replaced)
	}
}

func TestVictimLRUOrdering(t *testing.T) {
	cfg := Config{Entries: 4, Ways: 4, TrainInterval: 64, Threshold: 0.10}
	c := New(cfg)
	// Fill the set; no entry trains to difficult (interval 64 never
	// elapses), so selection is pure LRU over monotonically increasing
	// ticks (uint64 ticks cannot wrap within a run).
	for id := path.ID(1); id <= 4; id++ {
		c.Observe(id, true)
	}
	// Touch 1 and 3; LRU order is now 2, 4, 1, 3.
	c.Observe(path.ID(1), false)
	c.Observe(path.ID(3), false)
	v, replaced := c.victim(path.ID(50))
	if !replaced || c.ids[v] != path.ID(2) {
		t.Errorf("victim = id %d (replaced=%v), want LRU id 2", c.ids[v], replaced)
	}
	// Touch 2; next victim is 4.
	c.Observe(path.ID(2), false)
	v, _ = c.victim(path.ID(50))
	if c.ids[v] != path.ID(4) {
		t.Errorf("victim after touching 2 = id %d, want 4", c.ids[v])
	}
}

func TestTraceEmitsPathCacheEvents(t *testing.T) {
	cfg := Config{Entries: 2, Ways: 2, TrainInterval: 2, Threshold: 0.10}
	c := New(cfg)
	tr := obs.NewTracer()
	c.Trace = tr
	// Two allocations into invalid ways, then an eviction.
	c.Observe(path.ID(1), true)
	c.Observe(path.ID(2), true)
	c.Observe(path.ID(3), true)
	if got := tr.Count(obs.KindPathAlloc); got != 2 {
		t.Errorf("alloc events = %d, want 2", got)
	}
	if got := tr.Count(obs.KindPathReplace); got != 1 {
		t.Errorf("replace events = %d, want 1", got)
	}
	// Train id 3 difficult, promote, reject, demote via refusal.
	c.Observe(path.ID(3), true)
	c.SetPromoted(path.ID(3), true)
	c.SetPromoted(path.ID(3), false)
	if got := tr.Count(obs.KindPathPromote); got != 1 {
		t.Errorf("promote events = %d, want 1", got)
	}
	if got := tr.Count(obs.KindPathPromoteRejected); got != 1 {
		t.Errorf("rejected events = %d, want 1", got)
	}
	if got := tr.Count(obs.KindPathDemote); got != uint64(c.Stats.Demotions) {
		t.Errorf("demote events = %d, stats say %d", got, c.Stats.Demotions)
	}
	// Event counts reconcile with Stats exactly.
	if tr.Count(obs.KindPathAlloc)+tr.Count(obs.KindPathReplace) != c.Stats.Allocations {
		t.Errorf("alloc+replace events %d+%d != Stats.Allocations %d",
			tr.Count(obs.KindPathAlloc), tr.Count(obs.KindPathReplace), c.Stats.Allocations)
	}
	if tr.Count(obs.KindPathReplace) != c.Stats.Replacements {
		t.Errorf("replace events != Stats.Replacements")
	}
}
