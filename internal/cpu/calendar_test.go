package cpu

import (
	"strings"
	"testing"
)

// usedAt returns the bookings at cyc.
func (c *calendar) usedAt(cyc uint64) uint16 { return uint16(c.word(cyc)) }

// add books one slot at cyc through book, as earliest does when cyc has
// room. Tests book below the limit.
func (c *calendar) add(cyc uint64) { c.book(cyc, c.word(cyc)) }

// TestCalendarGenerationReset verifies reset invalidates stale bookings:
// cycle numbers restart at zero and must see an empty calendar.
func TestCalendarGenerationReset(t *testing.T) {
	c := newCalendar(2)
	for cyc := uint64(0); cyc < 100; cyc++ {
		c.add(cyc)
	}
	if c.usedAt(50) != 1 {
		t.Fatalf("usedAt(50) = %d before reset, want 1", c.usedAt(50))
	}
	c.reset()
	for cyc := uint64(0); cyc < 100; cyc++ {
		if got := c.usedAt(cyc); got != 0 {
			t.Fatalf("usedAt(%d) = %d after reset, want 0", cyc, got)
		}
	}
	// Fresh bookings after reset behave normally, including wrap slots.
	if got := c.earliest(7); got != 7 {
		t.Fatalf("earliest(7) = %d after reset, want 7", got)
	}
	c.add(7)
	if got := c.earliest(7); got != 8 {
		t.Fatalf("earliest(7) with full cycle = %d, want 8", got)
	}
}

// TestCalendarRemoveRespectsGeneration verifies a refund from a previous
// run cannot corrupt the current one.
func TestCalendarRemoveRespectsGeneration(t *testing.T) {
	c := newCalendar(4)
	c.add(10)
	c.reset()
	c.remove(10) // stale: must be a no-op
	c.add(10)
	if got := c.usedAt(10); got != 1 {
		t.Fatalf("usedAt(10) = %d, want 1", got)
	}
}

// TestCalendarHorizonGuard verifies that a scan across a fully booked
// horizon panics with the booked range instead of silently aliasing the
// ring back onto its own starting slot.
func TestCalendarHorizonGuard(t *testing.T) {
	book := func(c *calendar, start uint64) {
		for cyc := start; cyc < start+calendarHorizon; cyc++ {
			for i := 0; i < c.limit; i++ {
				c.add(cyc)
			}
		}
	}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			v := recover()
			if v == nil {
				t.Fatalf("%s: no panic on fully booked horizon", name)
			}
			if s, ok := v.(string); !ok || !strings.Contains(s, "fully booked") {
				t.Fatalf("%s: panic = %v, want booked-horizon message", name, v)
			}
		}()
		fn()
	}

	c := newCalendar(1)
	book(c, 5)
	expectPanic("earliest", func() { c.earliest(5) })

	a, b := newCalendar(1), newCalendar(1)
	book(b, 5) // only the second calendar is full; earliest2 must still stop
	expectPanic("earliest2", func() { earliest2(a, b, 5) })
}

// TestCalendarResetFreesEverySlot books every slot of the ring to its
// limit, resets, and expects the same cycles, which a new run reuses from
// zero, to be free again.
func TestCalendarResetFreesEverySlot(t *testing.T) {
	c := newCalendar(3)
	for cyc := uint64(0); cyc < calendarHorizon; cyc++ {
		for i := 0; i < c.limit; i++ {
			c.add(cyc)
		}
	}
	c.reset()
	for cyc := uint64(0); cyc < calendarHorizon; cyc++ {
		if got := c.usedAt(cyc); got != 0 {
			t.Fatalf("usedAt(%d) = %d after reset, want 0", cyc, got)
		}
		if got := c.earliest(cyc); got != cyc {
			t.Fatalf("earliest(%d) = %d after reset, want %d", cyc, got, cyc)
		}
	}
}

// TestCalendarCycleFieldGuard checks the bound of a slot's cycle field
// on both booking paths, earliest and earliest2: the last cycle that fits
// books normally, and the first that does not panics instead of aliasing
// a lower cycle.
func TestCalendarCycleFieldGuard(t *testing.T) {
	last := uint64(calendarMaxCycle - 1)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			v := recover()
			if s, ok := v.(string); !ok || !strings.Contains(s, "cycle field") {
				t.Fatalf("%s: panic = %v, want cycle-field message", name, v)
			}
		}()
		fn()
	}

	c := newCalendar(2)
	if got := c.earliest(last); got != last {
		t.Fatalf("earliest(%d) = %d", last, got)
	}
	if got := c.usedAt(last); got != 1 {
		t.Fatalf("usedAt(%d) = %d, want 1", last, got)
	}
	if got := c.usedAt(last % calendarHorizon); got != 0 {
		t.Fatalf("cycle %d aliases cycle %d", last, last%calendarHorizon)
	}
	expectPanic("earliest", func() { c.earliest(calendarMaxCycle) })

	a, b := newCalendar(1), newCalendar(1)
	if got := earliest2(a, b, last); got != last {
		t.Fatalf("earliest2(%d) = %d", last, got)
	}
	if a.usedAt(last) != 1 || b.usedAt(last) != 1 {
		t.Fatalf("earliest2(%d) booked %d and %d, want 1 and 1", last, a.usedAt(last), b.usedAt(last))
	}
	expectPanic("earliest2", func() { earliest2(a, b, calendarMaxCycle) })
}
