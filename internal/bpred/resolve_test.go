package bpred

import (
	"reflect"
	"testing"

	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/synth"
)

// branchRec is one retired branch of a recorded stream.
type branchRec struct {
	pc     isa.Addr
	in     isa.Inst
	taken  bool
	target isa.Addr
}

// recordBranches returns the branches among the first insts instructions
// of the named paper program.
func recordBranches(tb testing.TB, bench string, insts uint64) []branchRec {
	tb.Helper()
	p, err := synth.ProfileByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	var out []branchRec
	emu.New(synth.Generate(p)).Run(insts, func(r *emu.Record) bool {
		if r.Inst.IsBranch() {
			out = append(out, branchRec{pc: r.PC, in: r.Inst, taken: r.Taken, target: r.NextPC})
		}
		return true
	})
	return out
}

// TestResolveMatchesPredictUpdate holds Resolve to Predict followed by
// Update, branch by branch, over recorded streams of three paper
// programs, for every backend: each prediction and miss, and at the end
// the Stats and BackendStats, must agree. For hybrid and tage the
// direction tables must end identical too (h2p's wrapped hybrid counts
// one lookup per Resolve, two per Predict and Update, and no result
// reports it).
func TestResolveMatchesPredictUpdate(t *testing.T) {
	for _, bench := range []string{"gcc", "comp", "go"} {
		stream := recordBranches(t, bench, 200_000)
		for _, backend := range Backends() {
			ref, err := NewNamed(DefaultConfig(), backend)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := NewNamed(DefaultConfig(), backend)
			for i, b := range stream {
				wantPr := ref.Predict(b.pc, b.in)
				wantMiss := ref.Update(b.pc, b.in, wantPr, b.taken, b.target)
				pr, miss := got.Resolve(b.pc, b.in, b.taken, b.target)
				if pr != wantPr || miss != wantMiss {
					t.Fatalf("%s %s branch %d (%v at %d): Resolve = %+v miss %v, Predict+Update %+v miss %v",
						bench, backend, i, b.in.Op, b.pc, pr, miss, wantPr, wantMiss)
				}
			}
			if got.Stats != ref.Stats || got.BackendStats() != ref.BackendStats() {
				t.Errorf("%s %s: Resolve stats %+v %+v, Predict+Update %+v %+v",
					bench, backend, got.Stats, got.BackendStats(), ref.Stats, ref.BackendStats())
			}
			if ref.Stats.CondMispredicted == 0 || ref.Stats.CondPredicted == 0 {
				t.Errorf("%s %s: vacuous stream: %+v", bench, backend, ref.Stats)
			}
			if backend != BackendH2P && !reflect.DeepEqual(got.Dir, ref.Dir) {
				t.Errorf("%s %s: direction tables differ after the stream", bench, backend)
			}
		}
	}
}

// BenchmarkResolve and BenchmarkPredictUpdate time one branch of gcc's
// recorded stream through the default predictor: Resolve against the
// Predict and Update pair it replaces in the timing core and the
// profiler.
func BenchmarkResolve(b *testing.B) {
	stream := recordBranches(b, "gcc", 400_000)
	p := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &stream[i%len(stream)]
		p.Resolve(r.pc, r.in, r.taken, r.target)
	}
}

func BenchmarkPredictUpdate(b *testing.B) {
	stream := recordBranches(b, "gcc", 400_000)
	p := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &stream[i%len(stream)]
		p.Update(r.pc, r.in, p.Predict(r.pc, r.in), r.taken, r.target)
	}
}
