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
//
// The pre-promoted cases carry 4,096 profile-guided paths, so the
// machine's promoted sets hold thousands of entries: Reset must keep
// their storage, not rebuild them. A Reset that rebuilt both sets
// allocated 96 and 98 objects on these cases.
func TestWarmTimingRunAllocs(t *testing.T) {
	w := MustWorkload("gcc")
	pre := make([]uint64, 4096)
	for i := range pre {
		pre[i] = uint64(i+1) * 0x9E3779B97F4A7C15
	}
	perfect := cpu.DefaultConfig()
	perfect.Mode = cpu.ModePerfectPromoted
	perfect.PrePromoted = pre
	guided := cpu.DefaultConfig()
	guided.PrePromoted = pre

	// Measured allocs/run on a warm machine: 47 for the microthread runs
	// (result copy, routine builds, a few map growths) and 2 for the
	// perfect-promoted one. The bounds leave ~35% headroom for benign
	// variation in map growth while still catching any per-instruction or
	// per-branch allocation, which would show up in the thousands. The
	// first gate was 128.
	cases := []struct {
		name      string
		cfg       cpu.Config
		maxAllocs float64
	}{
		{"default", cpu.DefaultConfig(), 64},
		{"default+prepromoted", guided, 64},
		{"perfect-promoted+prepromoted", perfect, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.MaxInsts = 50_000
			m := cpu.NewMachine()
			run := func() {
				if _, err := m.RunContext(context.Background(), w.Program, cfg); err != nil {
					t.Fatal(err)
				}
			}
			run() // size every component before measuring
			if got := testing.AllocsPerRun(5, run); got > c.maxAllocs {
				t.Errorf("warm timing run allocates %.0f objects, want <= %.0f", got, c.maxAllocs)
			}
		})
	}
}
