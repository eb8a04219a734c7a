package cpu

import "fmt"

// calendar tracks per-cycle usage of a shared resource (functional units,
// L1 read ports) over a sliding horizon. Each ring slot is one word,
// cycle<<calendarUsedBits | used: it counts bookings only for the cycle
// it names, so the ring is reused across cycles without clearing, and a
// zeroed slot reads as no bookings for any cycle. A cycle must stay below
// calendarMaxCycle to fit its field; add panics at one that does not.
// Scheduling never looks further ahead than memory latency plus queueing,
// far below the horizon, and earliest/earliest2 panic if that invariant
// is ever violated rather than silently aliasing the ring.
type calendar struct {
	limit int
	slots []uint64
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
	return &calendar{limit: limit, slots: make([]uint64, calendarHorizon)}
}

// reset clears every slot so the calendar can serve another run, whose
// cycle numbers restart from zero.
func (c *calendar) reset() {
	clear(c.slots)
}

func (c *calendar) usedAt(cyc uint64) uint16 {
	s := c.slots[cyc%calendarHorizon]
	if s>>calendarUsedBits != cyc {
		return 0
	}
	return uint16(s)
}

// add books one slot at cyc. Callers book only below the limit, so the
// count never carries into the cycle field.
func (c *calendar) add(cyc uint64) {
	if cyc >= calendarMaxCycle {
		panic(fmt.Sprintf("cpu: resource calendar cycle %d is beyond its %d-bit cycle field",
			cyc, 64-calendarUsedBits))
	}
	i := cyc % calendarHorizon
	if c.slots[i]>>calendarUsedBits != cyc {
		c.slots[i] = cyc << calendarUsedBits
	}
	c.slots[i]++
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
// and books it.
func (c *calendar) earliest(ready uint64) uint64 {
	cyc := ready
	for c.usedAt(cyc) >= uint16(c.limit) {
		cyc++
		c.checkHorizon(cyc, ready)
	}
	c.add(cyc)
	return cyc
}

// earliest2 books a slot in both calendars at the first cycle at or after
// ready where both have capacity (loads need a functional unit and an L1
// port in the same cycle).
func earliest2(a, b *calendar, ready uint64) uint64 {
	cyc := ready
	for a.usedAt(cyc) >= uint16(a.limit) || b.usedAt(cyc) >= uint16(b.limit) {
		cyc++
		a.checkHorizon(cyc, ready)
	}
	a.add(cyc)
	b.add(cyc)
	return cyc
}
