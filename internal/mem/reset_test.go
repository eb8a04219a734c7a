package mem

import (
	"testing"

	"dpbp/internal/isa"
)

// TestResetMatchesFreshSystem audits Reset against reconstruction: after
// arbitrary traffic (loads and stores spanning L1, L2, DRAM banks, and
// the store buffer), a reset system must report latencies and
// statistics identical to a newly built one over the same access trace.
func TestResetMatchesFreshSystem(t *testing.T) {
	cfg := Config{DRAMBanks: 4, StoreBufferEntries: 4, StoreDrainCycles: 64}
	used := New(cfg)

	// Dirty every component: cache fills, bank contention, buffered
	// stores still inside their drain window.
	now := uint64(0)
	for i := 0; i < 200; i++ {
		a := isa.Addr(i * 97 % 4096)
		now += uint64(used.LoadLatency(a, now))
		if i%3 == 0 {
			now += uint64(used.StoreLatency(a, now))
		}
		if i%17 == 0 {
			used.LoadLatency(a+8, now)
		}
	}
	used.Reset()

	fresh := New(cfg)
	if used.Loads != 0 || used.Stores != 0 || used.L1Hits != 0 ||
		used.L2Hits != 0 || used.DRAMVisits != 0 || used.SBForwards != 0 {
		t.Fatalf("stats survived Reset: %+v", *used)
	}

	// Replay an identical trace on both; every latency must agree.
	now = 0
	for i := 0; i < 300; i++ {
		a := isa.Addr(i * 131 % 8192)
		lu, lf := used.LoadLatency(a, now), fresh.LoadLatency(a, now)
		if lu != lf {
			t.Fatalf("access %d: reset system load latency %d, fresh %d", i, lu, lf)
		}
		now += uint64(lu)
		if i%5 == 0 {
			su, sf := used.StoreLatency(a, now), fresh.StoreLatency(a, now)
			if su != sf {
				t.Fatalf("access %d: reset system store latency %d, fresh %d", i, su, sf)
			}
		}
		if i%7 == 0 { // forwarding window: immediate reload of a stored addr
			lu, lf = used.LoadLatency(a, now+1), fresh.LoadLatency(a, now+1)
			if lu != lf {
				t.Fatalf("access %d: forwarded reload latency %d vs %d", i, lu, lf)
			}
		}
	}
	if used.Loads != fresh.Loads || used.L1Hits != fresh.L1Hits ||
		used.L2Hits != fresh.L2Hits || used.DRAMVisits != fresh.DRAMVisits ||
		used.SBForwards != fresh.SBForwards {
		t.Fatalf("replay stats diverge: reset %+v, fresh %+v", *used, *fresh)
	}
}
