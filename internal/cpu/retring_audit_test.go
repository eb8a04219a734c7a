package cpu

import (
	"context"
	"testing"

	"dpbp/internal/emu"
	"dpbp/internal/synth"
)

// These tests audit the retirement ring that replaced the unbounded
// per-instruction retire-cycle array: a power-of-two ring of length
// >= WindowSize, indexed seq&retMask. The window gate reads slot
// (i-WindowSize)&retMask while fetching instruction i, so correctness
// rests on the ring always holding the retire cycles of the last ringLen
// retired instructions, verbatim.

// TestRetireRingSizing pins the ring geometry for non-power-of-two
// window sizes: the ring rounds up to the next power of two, never down,
// so slot (i-w)&mask cannot have been overwritten before the gate reads
// it.
func TestRetireRingSizing(t *testing.T) {
	cases := []struct {
		window, ringLen int
	}{
		{1, 1}, {2, 2}, {33, 64}, {64, 64}, {100, 128}, {257, 512},
	}
	prog := synth.Random(1, 2)
	for _, c := range cases {
		m := NewMachine()
		cfg := Config{Mode: ModeBaseline, WindowSize: c.window, MaxInsts: 500}
		if _, err := m.RunContext(context.Background(), prog, cfg); err != nil {
			t.Fatal(err)
		}
		if len(m.retRing) != c.ringLen || m.retMask != uint64(c.ringLen-1) {
			t.Errorf("WindowSize %d: ring len %d mask %#x, want len %d mask %#x",
				c.window, len(m.retRing), m.retMask, c.ringLen, uint64(c.ringLen-1))
		}
	}
}

// TestRetireRingMatchesUnboundedReference replays the pre-rewrite
// semantics: an unbounded array of retire cycles indexed by sequence
// number. After every retirement the ring's live suffix — the last
// ringLen instructions — must match the reference array slot for slot,
// and retirement must be in order (non-decreasing cycles), for both a
// power-of-two and a rounded-up window size.
func TestRetireRingMatchesUnboundedReference(t *testing.T) {
	for _, window := range []int{32, 33} {
		prog := synth.Random(3, 4)
		m := NewMachine()
		var ref []uint64 // retire cycle of every retired instruction
		cfg := Config{Mode: ModeBaseline, WindowSize: window, MaxInsts: 4_000}
		cfg.OnRetire = func(_ int, rec *emu.Record) {
			// execute() has just written this instruction's retire cycle
			// into its ring slot.
			rc := m.retRing[rec.Seq&m.retMask]
			if len(ref) > 0 && rc < ref[len(ref)-1] {
				t.Fatalf("window %d: retire cycle went backwards at seq %d: %d after %d",
					window, rec.Seq, rc, ref[len(ref)-1])
			}
			ref = append(ref, rc)
			if rec.Seq%97 != 0 {
				return
			}
			lo := 0
			if n := len(ref) - len(m.retRing); n > 0 {
				lo = n
			}
			for j := lo; j < len(ref); j++ {
				if got := m.retRing[uint64(j)&m.retMask]; got != ref[j] {
					t.Fatalf("window %d: ring slot for seq %d holds %d, reference %d",
						window, j, got, ref[j])
				}
			}
		}
		if _, err := m.RunContext(context.Background(), prog, cfg); err != nil {
			t.Fatal(err)
		}
		if len(ref) == 0 {
			t.Fatalf("window %d: no instructions retired", window)
		}
	}
}
