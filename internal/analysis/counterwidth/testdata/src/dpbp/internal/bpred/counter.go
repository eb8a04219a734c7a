// Package bpred is a fixture mirroring the real counter helpers: a 2-bit
// saturating counter whose bounds live in inc/dec.
package bpred

// counter2 is a 2-bit saturating counter.
type counter2 uint8

// inc moves the counter toward 3, saturating. Arithmetic on the receiver
// inside the type's own methods is the one legal place for it.
func (c counter2) inc() counter2 {
	if c < 3 {
		return c + 1
	}
	return c
}

// dec moves the counter toward 0, saturating.
func (c counter2) dec() counter2 {
	if c > 0 {
		return c - 1
	}
	return c
}

// update trains the counter toward outcome.
func (c counter2) update(outcome bool) counter2 {
	if outcome {
		return c.inc()
	}
	return c.dec()
}

// hitCtr has no helper methods but is counter-named, so the discipline
// still applies.
type hitCtr uint16

// train shows the violations: every direct-arithmetic form on a counter
// type outside its own methods.
func train(pht []counter2, hits hitCtr, taken bool) (counter2, hitCtr) {
	c := pht[0]
	if taken {
		c++ // want `saturating counter counter2 incremented directly`
	} else {
		c-- // want `saturating counter counter2 decremented directly`
	}
	c += 1          // want `saturating counter counter2 op-assigned directly`
	c = c + 1       // want `saturating counter counter2 used in direct arithmetic`
	hits = hits - 1 // want `saturating counter hitCtr used in direct arithmetic`

	// The helpers are the sanctioned path, and plain ints are untouched.
	c = c.update(taken)
	n := 7
	n++
	return c, hits + 0*hitCtr(n) // want `saturating counter hitCtr used in direct arithmetic`
}
