package bpred

// Reset rewinds every component to its post-construction state so the
// predictor can be reused for another run without reallocating its tables
// (the PHTs alone are hundreds of kilobytes).
func (p *Predictor) Reset() {
	p.Dir.Reset()
	p.BTB.Reset()
	p.RAS.Reset()
	p.TCache.Reset()
	p.Stats = Stats{}
}

// Reset reinitialises the hybrid: both components and the selector return
// to weakly-taken, and the statistics to zero.
func (h *Hybrid) Reset() {
	h.G.Reset()
	h.P.Reset()
	h.selector.fill(weaklyTaken)
	h.Stats = HybridStats{}
}

// Reset reinitialises the PHT to weakly-taken and clears the history.
func (g *Gshare) Reset() {
	g.pht.fill(weaklyTaken)
	g.hist = 0
}

// Reset reinitialises the PHT to weakly-taken and clears the local
// histories.
func (p *PAs) Reset() {
	for i := range p.localHist {
		p.localHist[i] = 0
	}
	p.pht.fill(weaklyTaken)
}

// Reset invalidates every entry.
func (b *BTB) Reset() {
	for i := range b.valid {
		b.valid[i] = false
	}
}

// Reset empties the stack.
func (r *RAS) Reset() {
	r.top = 0
	r.depth = 0
}

// Reset invalidates every entry and clears the path history.
func (t *TargetCache) Reset() {
	for i := range t.valid {
		t.valid[i] = false
	}
	t.hist = 0
}
