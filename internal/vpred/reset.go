package vpred

// Reset invalidates every entry, zeroes the statistics and sizes the
// table for a program of pcs instructions: the smallest power of two at
// least min(pcs, cfg.Entries). The table's storage is reused when it is
// large enough.
func (p *Predictor) Reset(pcs int) {
	n := 1
	for n < min(pcs, p.cfg.Entries) {
		n *= 2
	}
	if cap(p.entries) < n {
		p.entries = make([]entry, n)
	} else {
		p.entries = p.entries[:n]
		clear(p.entries)
	}
	p.mask = uint64(n - 1)
	p.Trains = 0
	p.Hits = 0
	p.Queries = 0
	p.Confidents = 0
}
