package cpu

import (
	"context"
	"math"
	"testing"

	"dpbp/internal/emu"
)

// TestMinTargetMatchesActiveContexts audits the bookkeeping behind
// monitorContexts' early-out. The monitor skips an instruction that is
// neither a store nor an abortable taken branch when its seq is below
// minTarget, which is sound only if minTarget is exactly the smallest
// targetSeq over active contexts. After every retirement of a pruning run
// the cached value must equal a scan of the contexts (math.MaxUint64 when
// none is active), across spawns, completions and aborts.
func TestMinTargetMatchesActiveContexts(t *testing.T) {
	for _, bench := range []string{"comp", "mcf_2k"} {
		prog, err := programOf(bench)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine()
		cfg := DefaultConfig()
		cfg.Mode = ModeMicrothread
		cfg.Pruning = true
		cfg.UsePredictions = true
		cfg.MaxInsts = 100_000
		busy := 0
		cfg.OnRetire = func(_ int, rec *emu.Record) {
			want := uint64(math.MaxUint64)
			for i := range m.ctxs {
				if m.activeBits[i>>6]&(1<<(i&63)) != 0 {
					want = min(want, m.ctxs[i].targetSeq)
				}
			}
			if m.minTarget != want {
				t.Fatalf("%s seq %d: minTarget %d, smallest active targetSeq %d",
					bench, rec.Seq, m.minTarget, want)
			}
			if want != math.MaxUint64 {
				busy++
			}
		}
		res, err := m.RunContext(context.Background(), prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if busy == 0 || res.Micro.Completed == 0 || res.Micro.AbortedActive == 0 {
			t.Fatalf("%s: vacuous audit: %d retirements with a context active, %d completions, %d aborts",
				bench, busy, res.Micro.Completed, res.Micro.AbortedActive)
		}
	}
}
