package pathcache

// Reset invalidates every entry and zeroes the tick and statistics,
// returning the cache to its post-construction state without reallocating
// the backing array.
func (c *Cache) Reset() {
	clear(c.ids)
	clear(c.metas)
	c.tick = 0
	c.Stats = Stats{}
	// A tracer wired by a previous run must not leak events into the
	// next one; the owner re-attaches its own after Reset.
	c.Trace = nil
}
