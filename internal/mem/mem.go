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

// Config sizes the hierarchy. Zero values take Table 3 defaults.
type Config struct {
	L1SizeWords int // 64KB = 8K words
	L1Ways      int
	L1Latency   int
	L2SizeWords int // 1MB = 128K words
	L2Ways      int
	L2Latency   int
	LineWords   int
	DRAMLatency int
	DRAMBanks   int
	BusCycles   int // core-to-memory bus occupancy per transfer

	// StoreBufferEntries sizes the store/write-combining buffer
	// (Table 3: 32 entries). Loads that hit a buffered store forward at
	// L1 latency instead of paying the L2 round trip caused by the
	// store-invalidates-L1 policy.
	StoreBufferEntries int
	// StoreDrainCycles is how long a store stays forwardable.
	StoreDrainCycles int
}

// DefaultConfig returns the Table 3 hierarchy.
func DefaultConfig() Config {
	return Config{
		L1SizeWords: 8 << 10,
		L1Ways:      2,
		L1Latency:   3,
		L2SizeWords: 128 << 10,
		L2Ways:      8,
		L2Latency:   6,
		LineWords:   8,
		DRAMLatency: 100,
		DRAMBanks:   32,
		BusCycles:   2,

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

// Canonical returns the configuration with every zero field replaced by
// its Table 3 default — exactly the configuration New builds.
func (cfg Config) Canonical() Config {
	d := DefaultConfig()
	if cfg.L1SizeWords == 0 {
		cfg.L1SizeWords = d.L1SizeWords
	}
	if cfg.L1Ways == 0 {
		cfg.L1Ways = d.L1Ways
	}
	if cfg.L1Latency == 0 {
		cfg.L1Latency = d.L1Latency
	}
	if cfg.L2SizeWords == 0 {
		cfg.L2SizeWords = d.L2SizeWords
	}
	if cfg.L2Ways == 0 {
		cfg.L2Ways = d.L2Ways
	}
	if cfg.L2Latency == 0 {
		cfg.L2Latency = d.L2Latency
	}
	if cfg.LineWords == 0 {
		cfg.LineWords = d.LineWords
	}
	if cfg.DRAMLatency == 0 {
		cfg.DRAMLatency = d.DRAMLatency
	}
	if cfg.DRAMBanks == 0 {
		cfg.DRAMBanks = d.DRAMBanks
	}
	if cfg.BusCycles == 0 {
		cfg.BusCycles = d.BusCycles
	}
	if cfg.StoreBufferEntries == 0 {
		cfg.StoreBufferEntries = d.StoreBufferEntries
	}
	if cfg.StoreDrainCycles == 0 {
		cfg.StoreDrainCycles = d.StoreDrainCycles
	}
	return cfg
}

// New builds a memory system from cfg (zero fields defaulted).
func New(cfg Config) *System {
	cfg = cfg.Canonical()
	return &System{
		cfg:      cfg,
		L1:       cache.New(cache.Config{SizeWords: cfg.L1SizeWords, Ways: cfg.L1Ways, LineWords: cfg.LineWords}),
		L2:       cache.New(cache.Config{SizeWords: cfg.L2SizeWords, Ways: cfg.L2Ways, LineWords: cfg.LineWords}),
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
		return s.cfg.L1Latency
	}
	if s.L1.Access(addr) {
		s.L1Hits++
		return s.cfg.L1Latency
	}
	lat := s.cfg.L1Latency + s.cfg.L2Latency
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
	lat += s.cfg.BusCycles + s.cfg.DRAMLatency
	s.bankFree[bank] = start + uint64(s.cfg.DRAMLatency)
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
