package mem

import (
	"testing"

	"dpbp/internal/isa"
)

func TestLatencyLadder(t *testing.T) {
	s := New(DefaultConfig())
	// Cold: L1 miss, L2 miss -> DRAM.
	cold := s.LoadLatency(0x1000, 0)
	if cold < 100 {
		t.Errorf("cold load latency %d, want >= 100 (DRAM)", cold)
	}
	// Now in both: L1 hit.
	warm := s.LoadLatency(0x1000, 1000)
	if warm != 3 {
		t.Errorf("warm load latency %d, want 3", warm)
	}
	if s.L1Hits != 1 || s.DRAMVisits != 1 {
		t.Errorf("stats wrong: %+v", *s)
	}
}

func TestL2HitLatency(t *testing.T) {
	s := New(DefaultConfig())
	s.LoadLatency(0x2000, 0)   // fills L1+L2
	s.StoreLatency(0x2000, 10) // invalidates L1, keeps L2
	// Past the store buffer's drain window, the load pays the L2 round
	// trip (the in-window case is TestStoreBufferForwarding).
	lat := s.LoadLatency(0x2000, 10_000)
	if lat != 3+6 {
		t.Errorf("L2 hit latency %d, want 9", lat)
	}
	if s.L2Hits != 1 {
		t.Errorf("L2Hits = %d", s.L2Hits)
	}
}

func TestDRAMBankContention(t *testing.T) {
	s := New(Config{DRAMBanks: 1, StoreBufferEntries: 32, StoreDrainCycles: 64})
	a := s.LoadLatency(0x10000, 0)
	// Second miss to a different line, same (only) bank, issued at the
	// same cycle: must queue behind the first.
	b := s.LoadLatency(0x20000, 0)
	if b <= a {
		t.Errorf("no bank queueing: first %d, second %d", a, b)
	}
}

func TestStoreInvalidatesL1Only(t *testing.T) {
	s := New(DefaultConfig())
	s.LoadLatency(0x3000, 0)
	if lat := s.StoreLatency(0x3000, 1); lat != 1 {
		t.Errorf("store latency %d, want 1", lat)
	}
	if s.L1.Probe(0x3000) {
		t.Error("store did not invalidate L1")
	}
	if !s.L2.Probe(0x3000) {
		t.Error("store evicted L2 line")
	}
}

func TestCapacityMissesAtScale(t *testing.T) {
	// A stream far larger than L1 must produce L1 misses.
	s := New(DefaultConfig())
	for a := 0; a < 64<<10; a += 8 {
		s.LoadLatency(isa.Addr(0x100000+a), uint64(a))
	}
	if s.L1Hits > 0 {
		t.Errorf("streaming loads hit L1 %d times", s.L1Hits)
	}
}

func TestStoreBufferForwarding(t *testing.T) {
	s := New(DefaultConfig())
	s.LoadLatency(0x5000, 0) // warm both levels
	s.StoreLatency(0x5000, 10)
	// Within the drain window, the load forwards at L1 latency even
	// though the store invalidated the L1 line.
	if lat := s.LoadLatency(0x5000, 20); lat != 3 {
		t.Errorf("forwarded load latency %d, want 3", lat)
	}
	if s.SBForwards != 1 {
		t.Errorf("SBForwards = %d", s.SBForwards)
	}
	// After the window, the load pays the L2 round trip.
	if lat := s.LoadLatency(0x5000, 10_000); lat != 9 {
		t.Errorf("post-drain load latency %d, want 9", lat)
	}
}

func TestStoreBufferCapacityWraps(t *testing.T) {
	s := New(Config{DRAMBanks: 32, StoreBufferEntries: 2, StoreDrainCycles: 1000})
	s.StoreLatency(1, 0)
	s.StoreLatency(2, 0)
	s.StoreLatency(3, 0) // evicts the store to 1
	if s.forwardable(1, 10) {
		t.Error("evicted store still forwardable")
	}
	if !s.forwardable(2, 10) || !s.forwardable(3, 10) {
		t.Error("live stores not forwardable")
	}
}

func TestStoreBufferExactAddressOnly(t *testing.T) {
	s := New(DefaultConfig())
	s.StoreLatency(0x6000, 0)
	if s.forwardable(0x6001, 1) {
		t.Error("forwarding matched a different word")
	}
}
