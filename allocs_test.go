package dpbp

import (
	"context"
	"testing"

	"dpbp/internal/cpu"
)

// TestWarmTimingRunAllocs gates the hot-loop allocation work: a timing
// run on a warm (already-sized) machine must stay allocation-light. The
// figure sweeps run hundreds of these back to back, so regressions here
// multiply directly into experiment wall clock; before the hot-loop pass
// a warm run allocated tens of thousands of objects (calendar zeroing,
// per-run path maps, microthread scratch) and now allocates only the
// handful of result rows and lazily grown tables recorded in the bound.
func TestWarmTimingRunAllocs(t *testing.T) {
	w := MustWorkload("gcc")
	cfg := cpu.DefaultConfig()
	cfg.MaxInsts = 50_000

	m := cpu.NewMachine()
	run := func() {
		if _, err := m.RunContext(context.Background(), w.Program, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // size every component before measuring

	// Measured 47 allocs/run on a warm machine (result copy, routine
	// builds, a few map growths); the bound leaves ~35% headroom for
	// benign variation in map growth while still catching any
	// per-instruction or per-branch allocation, which would show up in
	// the thousands. The previous gate was 128.
	const maxAllocs = 64
	if got := testing.AllocsPerRun(5, run); got > maxAllocs {
		t.Errorf("warm timing run allocates %.0f objects, want <= %d", got, maxAllocs)
	}
}
