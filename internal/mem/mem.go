// Package mem models the Table 3 memory hierarchy above the register
// file: a 64KB 2-way L1 data cache (3-cycle), a 1MB 8-way L2 (6-cycle), and
// DRAM (100-cycle part access) behind a 2:1-ratio bus, with banked DRAM and
// per-bank queueing. Stores are sent directly to the L2 and invalidated in
// the L1 through a write-combining buffer, so they stay off the load
// critical path.
package mem

import (
	"dpbp/internal/cache"
	"dpbp/internal/isa"
)

// The Table 3 hierarchy parameters, which nothing varies, are
// constants, not Config fields.
const (
	l1SizeWords = 8 << 10 // 64KB
	l1Ways      = 2
	l1Latency   = 3
	l2SizeWords = 128 << 10 // 1MB
	l2Ways      = 8
	l2Latency   = 6
	lineWords   = 8
	dramLatency = 100
	busCycles   = 2 // core-to-memory bus occupancy per transfer
)

// Config sizes the DRAM banks and the store buffer, the parts of the
// hierarchy the tests vary. New takes it complete.
type Config struct {
	// DRAMBanks is the number of DRAM banks, each queueing its own
	// misses.
	DRAMBanks int

	// StoreBufferEntries sizes the store/write-combining buffer
	// (Table 3: 32 entries). Loads that hit a buffered store forward at
	// L1 latency instead of paying the L2 round trip caused by the
	// store-invalidates-L1 policy.
	StoreBufferEntries int
	// StoreDrainCycles is how long a store stays forwardable.
	StoreDrainCycles int
}

// DefaultConfig returns the Table 3 banks and store buffer.
func DefaultConfig() Config {
	return Config{
		DRAMBanks:          32,
		StoreBufferEntries: 32,
		StoreDrainCycles:   64,
	}
}

// System is the data-memory hierarchy.
type System struct {
	cfg      Config //dpbp:reset-skip configuration, fixed at construction
	L1       *cache.Cache
	L2       *cache.Cache
	bankFree []uint64 // next free cycle per DRAM bank

	// Store buffer: a ring of recently stored word addresses with their
	// forwardability deadline.
	sbAddr  []isa.Addr
	sbUntil []uint64
	sbHead  int

	// Stats.
	Loads      uint64
	Stores     uint64
	L1Hits     uint64
	L2Hits     uint64
	DRAMVisits uint64
	SBForwards uint64
}

// New builds a memory system from the complete cfg.
func New(cfg Config) *System {
	return &System{
		cfg:      cfg,
		L1:       cache.New(cache.Config{SizeWords: l1SizeWords, Ways: l1Ways, LineWords: lineWords}),
		L2:       cache.New(cache.Config{SizeWords: l2SizeWords, Ways: l2Ways, LineWords: lineWords}),
		bankFree: make([]uint64, cfg.DRAMBanks),
		sbAddr:   make([]isa.Addr, cfg.StoreBufferEntries),
		sbUntil:  make([]uint64, cfg.StoreBufferEntries),
	}
}

// forwardable reports whether a buffered store can forward to a load of
// addr at cycle now.
func (s *System) forwardable(addr isa.Addr, now uint64) bool {
	for i := range s.sbAddr {
		if s.sbAddr[i] == addr && s.sbUntil[i] > now {
			return true
		}
	}
	return false
}

// LoadLatency returns the latency in cycles of a load to addr issued at
// cycle now, updating cache and bank state.
func (s *System) LoadLatency(addr isa.Addr, now uint64) int {
	s.Loads++
	if s.forwardable(addr, now) {
		s.SBForwards++
		return l1Latency
	}
	if s.L1.Access(addr) {
		s.L1Hits++
		return l1Latency
	}
	lat := l1Latency + l2Latency
	if s.L2.Access(addr) {
		s.L2Hits++
		return lat
	}
	s.DRAMVisits++
	bank := int(s.L1.Line(addr)) % len(s.bankFree)
	start := now + uint64(lat)
	if s.bankFree[bank] > start {
		lat += int(s.bankFree[bank] - start)
		start = s.bankFree[bank]
	}
	lat += busCycles + dramLatency
	s.bankFree[bank] = start + dramLatency
	return lat
}

// StoreLatency models a store issued at cycle now: the line is invalidated
// in the L1 and installed in the L2 (write-combining buffer absorbs the
// latency). The returned latency is the store's occupancy of the pipeline,
// not a stall.
func (s *System) StoreLatency(addr isa.Addr, now uint64) int {
	s.Stores++
	s.L1.Invalidate(addr)
	s.L2.Access(addr)
	s.sbAddr[s.sbHead] = addr
	s.sbUntil[s.sbHead] = now + uint64(s.cfg.StoreDrainCycles)
	s.sbHead = (s.sbHead + 1) % len(s.sbAddr)
	return 1
}
