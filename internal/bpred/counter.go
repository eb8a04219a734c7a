// Package bpred implements the baseline branch-prediction hardware of
// Table 3: a 128K-entry gshare/PAs hybrid with a 64K-entry selector, a
// 4K-entry branch target buffer, a 32-entry return-address stack, and a
// 64K-entry target cache for indirect branches. A perfect oracle predictor
// supports the paper's potential-speed-up experiments.
package bpred

// counter2 is a 2-bit saturating counter. Values 0–1 predict not-taken
// (or "choose component A"), 2–3 predict taken ("choose component B").
type counter2 uint8

// inc moves the counter toward 3, saturating.
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

// taken reports the counter's prediction.
func (c counter2) taken() bool { return c >= 2 }

// update trains the counter toward outcome.
func (c counter2) update(outcome bool) counter2 {
	if outcome {
		return c.inc()
	}
	return c.dec()
}

// weaklyTaken is the common initial state for direction counters.
const weaklyTaken counter2 = 2

// counterTable is a table of 2-bit counters packed four to a byte:
// counter i is bits 2*(i%4) and 2*(i%4)+1 of byte i/4.
type counterTable []uint8

// newCounterTable returns a table of n counters, each set to c.
func newCounterTable(n int, c counter2) counterTable {
	t := make(counterTable, (n+3)/4)
	t.fill(c)
	return t
}

// at returns counter i.
func (t counterTable) at(i uint64) counter2 {
	return counter2(t[i/4]>>(i%4*2)) & 3
}

// set stores c as counter i.
func (t counterTable) set(i uint64, c counter2) {
	sh := i % 4 * 2
	t[i/4] = t[i/4]&^(3<<sh) | uint8(c)<<sh
}

// fill sets every counter to c.
func (t counterTable) fill(c counter2) {
	b := uint8(c) * 0b01010101
	for i := range t {
		t[i] = b
	}
}
