package replay_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dpbp/internal/cpu"
	"dpbp/internal/oracle"
	"dpbp/internal/program"
	"dpbp/internal/replay"
	"dpbp/internal/synth"
)

func benchProg(t *testing.T, name string) *program.Program {
	t.Helper()
	p, err := synth.ProfileByName(name)
	if err != nil {
		t.Fatalf("ProfileByName(%q): %v", name, err)
	}
	return synth.Generate(p)
}

// TestReplayMatchesLive is the end-to-end overlay-equivalence gate: for
// every ablation in the oracle sweep — baseline, the full microthread
// mechanism, its pruning/abort/wrong-path/throttle variants, the
// perfect-promoted mode, and the alternate predictor backends — a run
// reading its predictions from an overlay must produce a Result deeply
// equal to a live run's. This is the property that lets the experiment
// harness simulate each predictor once per benchmark (internal/exp's
// timedRun); the CI job runs it under -race to also catch unsound
// sharing of the overlay.
func TestReplayMatchesLive(t *testing.T) {
	const budget = 30_000
	progs := []string{synth.Names()[0], synth.Names()[3]}
	for _, name := range progs {
		prog := benchProg(t, name)
		for _, nc := range oracle.Ablations() {
			t.Run(name+"/"+nc.Name, func(t *testing.T) {
				cfg := nc.Config
				cfg.MaxInsts = budget

				live := cpu.Run(prog, cfg)

				canon := cfg.Canonical()
				ov, err := replay.NewOverlay(prog, canon.Predictor, canon.BPred, []uint64{budget})
				if err != nil {
					t.Fatalf("NewOverlay: %v", err)
				}
				replayed, err := cpu.NewMachine().RunContextFrom(context.Background(), prog, cfg, ov)
				if err != nil {
					t.Fatalf("RunContextFrom: %v", err)
				}

				if !reflect.DeepEqual(live, replayed) {
					t.Fatalf("overlay Result differs from live:\nlive:    %+v\noverlay: %+v", live, replayed)
				}
			})
		}
	}
}

// TestConcurrentReplaySharesOverlay runs one overlay from many
// goroutines at once — the experiment harness's actual sharing pattern
// — and requires every run to produce the live Result. Under -race this
// is the soundness check for sharing an overlay across runs.
func TestConcurrentReplaySharesOverlay(t *testing.T) {
	const budget = 10_000
	prog := benchProg(t, synth.Names()[4])
	cfg := cpu.Config{Mode: cpu.ModeMicrothread, UsePredictions: true, Pruning: true,
		AbortEnabled: true, RebuildOnViolation: true, MaxInsts: budget}
	want := cpu.Run(prog, cfg)

	canon := cfg.Canonical()
	ov, err := replay.NewOverlay(prog, canon.Predictor, canon.BPred, []uint64{budget})
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cpu.NewMachine().RunContextFrom(context.Background(), prog, cfg, ov)
			if err != nil {
				errs <- err.Error()
				return
			}
			if !reflect.DeepEqual(want, got) {
				errs <- "concurrent overlay run diverged from live run"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
