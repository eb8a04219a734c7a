package cpu

import "fmt"

// calendar tracks per-cycle usage of a shared resource (functional units,
// L1 read ports) over a sliding horizon. Each ring slot is one word,
// cycle<<calendarUsedBits | used: it counts bookings only for the cycle
// it names, so the ring is reused across cycles without clearing, and a
// zeroed slot reads as no bookings for any cycle. A cycle must stay below
// calendarMaxCycle to fit its field; a booking panics at one that does not.
// Scheduling never looks further ahead than memory latency plus queueing,
// far below the horizon, and earliest/earliest2 panic if that invariant
// is ever violated rather than silently aliasing the ring.
type calendar struct {
	limit int
	// slots is an array, not a slice, so indexing it by a cycle modulo
	// the horizon needs no bounds check.
	slots *[calendarHorizon]uint64
}

const (
	calendarHorizon = 1 << 15
	// calendarUsedBits holds a slot's booking count; limits are far
	// smaller (funcUnits, l1Ports).
	calendarUsedBits = 16
	// calendarMaxCycle bounds the cycles a slot can name.
	calendarMaxCycle = 1 << (64 - calendarUsedBits)
)

func newCalendar(limit int) *calendar {
	return &calendar{limit: limit, slots: new([calendarHorizon]uint64)}
}

// reset clears every slot so the calendar can serve another run, whose
// cycle numbers restart from zero.
func (c *calendar) reset() {
	clear(c.slots[:])
}

// word returns the slot word for cyc: the stored word when the slot names
// cyc, else a word naming cyc with no bookings. For a cycle beyond the
// cycle field that fresh word would alias a lower cycle, so book checks
// the cycle before it stores one.
func (c *calendar) word(cyc uint64) uint64 {
	if s := c.slots[cyc%calendarHorizon]; s>>calendarUsedBits == cyc {
		return s
	}
	return cyc << calendarUsedBits
}

// book stores w, cyc's slot word as word returned it, with one more
// booking. It is the one write of a booking, so every booking passes the
// cycle-field check; callers book only below the limit, so the count
// never carries into the cycle field.
func (c *calendar) book(cyc, w uint64) {
	if cyc >= calendarMaxCycle {
		cycleFieldOverflow(cyc)
	}
	c.slots[cyc%calendarHorizon] = w + 1
}

// cycleFieldOverflow panics at a cycle beyond the slot's cycle field
// instead of letting its booking alias a lower cycle. It is apart from
// book, and not inlined, so that book stays within the compiler's
// inlining budget.
//
//go:noinline
func cycleFieldOverflow(cyc uint64) {
	panic(fmt.Sprintf("cpu: resource calendar cycle %d is beyond its %d-bit cycle field",
		cyc, 64-calendarUsedBits))
}

// remove refunds one slot at cyc (microthread abort). It is a no-op if the
// slot has already been recycled.
func (c *calendar) remove(cyc uint64) {
	i := cyc % calendarHorizon
	if s := c.slots[i]; s>>calendarUsedBits == cyc && uint16(s) > 0 {
		c.slots[i]--
	}
}

// checkHorizon panics when a scan for a free slot has moved a full ring
// width past ready: one more step would alias the slot the scan started
// from and silently corrupt bookings. Reaching it means the model booked
// calendarHorizon consecutive full cycles, which no latency in the
// machine can produce; failing loudly (the scheduler's panic isolation
// turns this into a per-run error) beats wrong numbers.
func (c *calendar) checkHorizon(cyc, ready uint64) {
	if cyc-ready >= calendarHorizon {
		panic(fmt.Sprintf(
			"cpu: resource calendar fully booked from cycle %d through %d (horizon %d, limit %d/cycle)",
			ready, cyc, calendarHorizon, c.limit))
	}
}

// earliest returns the first cycle at or after ready with a free slot,
// and books it. Each probed slot is read once and the booked one written
// once.
func (c *calendar) earliest(ready uint64) uint64 {
	limit := uint16(c.limit)
	cyc := ready
	for {
		if w := c.word(cyc); uint16(w) < limit {
			c.book(cyc, w)
			return cyc
		}
		cyc++
		c.checkHorizon(cyc, ready)
	}
}

// earliest2 books a slot in both calendars at the first cycle at or after
// ready where both have capacity (loads need a functional unit and an L1
// port in the same cycle), reading and writing each slot once.
func earliest2(a, b *calendar, ready uint64) uint64 {
	la, lb := uint16(a.limit), uint16(b.limit)
	cyc := ready
	for {
		if wa := a.word(cyc); uint16(wa) < la {
			if wb := b.word(cyc); uint16(wb) < lb {
				a.book(cyc, wa)
				b.book(cyc, wb)
				return cyc
			}
		}
		cyc++
		a.checkHorizon(cyc, ready)
	}
}
