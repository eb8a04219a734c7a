package uthread

// Reset empties the buffer so it can host another run's retirement stream
// without reallocating the ring.
func (p *PRB) Reset() {
	p.size = 0
	p.next = 0
	p.started = false
	p.at = 0
}

// Reset removes every routine and zeroes the statistics, keeping the map
// and spawn-index allocations for reuse.
func (m *MicroRAM) Reset() {
	clear(m.routines)
	clear(m.bySpawn)
	clear(m.rebuild)
	clear(m.spawnCnt)
	m.Installs = 0
	m.Refusals = 0
	m.Removals = 0
}

// Reset reconfigures the builder in place and zeroes its statistics.
func (b *Builder) Reset(cfg BuildConfig) {
	b.cfg = cfg
	b.Stats = BuildStats{}
}
