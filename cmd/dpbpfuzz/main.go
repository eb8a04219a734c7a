// Command dpbpfuzz drives the differential oracle over seeded random
// programs: each trial generates a program from (seed+i, units), runs it
// through the functional emulator and every timing-core ablation, and
// diffs the retired architectural stream, the final state, and the
// statistics algebra (see internal/oracle).
//
// Usage:
//
//	dpbpfuzz [-n N] [-seed S] [-units U] [-insts I] [-j J] [-out DIR]
//	dpbpfuzz -repro FILE [-selftest]
//	dpbpfuzz -selftest
//
// Flags:
//
//	-n N        number of trials (default 256)
//	-seed S     base seed; trial i uses seed S+i (default 1)
//	-units U    code units per generated program (default 6)
//	-insts I    per-run primary-instruction budget (default 12000)
//	-j J        parallel trials (0 = GOMAXPROCS)
//	-out DIR    directory for shrunk repros (default testdata/repros)
//	-repro FILE replay one repro file instead of running trials
//	-selftest   inject an artificial stream fault, then require the
//	            harness to detect it, shrink it, and write a repro
//
// A failing trial is shrunk to a minimal failing unit subset and written
// to -out as <spec>.json (the regeneration recipe) plus <spec>.asm (the
// disassembled program); the exit status is nonzero. -selftest proves
// the whole pipeline end to end by corrupting one branch record in the
// "micro" ablation and demanding a repro come out the other side;
// combined with -repro it replays a repro under the same injected fault.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"dpbp/internal/oracle"
	"dpbp/internal/sched"
	"dpbp/internal/synth"
)

func main() {
	var o options
	flag.IntVar(&o.trials, "n", 256, "number of trials")
	flag.Int64Var(&o.seed, "seed", 1, "base seed; trial i uses seed+i")
	flag.IntVar(&o.units, "units", 6, "code units per generated program")
	flag.Uint64Var(&o.insts, "insts", 12_000, "per-run primary-instruction budget")
	flag.IntVar(&o.jobs, "j", 0, "parallel trials (0 = GOMAXPROCS)")
	flag.StringVar(&o.out, "out", "testdata/repros", "directory for shrunk repros")
	flag.StringVar(&o.repro, "repro", "", "replay one repro file instead of running trials")
	flag.BoolVar(&o.selftest, "selftest", false, "inject a fault and require detection, shrinking, and a repro")
	flag.Parse()

	if err := run(context.Background(), os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "dpbpfuzz:", err)
		os.Exit(1)
	}
}

// options is the parsed command line; run takes it whole so tests can
// drive the CLI without a process boundary.
type options struct {
	trials   int
	seed     int64
	units    int
	insts    uint64
	jobs     int
	out      string
	repro    string
	selftest bool
}

// fault returns the injected corruption for selftest mode, nil otherwise.
// The flipped record sits halfway through the instruction budget, which
// every generated program reaches (their main loops are effectively
// unbounded against these budgets).
func (o options) fault() *oracle.Fault {
	if !o.selftest {
		return nil
	}
	return &oracle.Fault{Config: "micro", Seq: o.insts / 2}
}

// run executes the CLI behind flag parsing: replay, selftest, or a trial
// sweep. Any returned error means a nonzero exit.
func run(ctx context.Context, w io.Writer, o options) error {
	if o.units <= 0 {
		return fmt.Errorf("-units must be positive, got %d", o.units)
	}
	if o.insts == 0 {
		return fmt.Errorf("-insts must be positive")
	}
	vopts := oracle.Options{MaxInsts: o.insts, Trace: true, Fault: o.fault()}
	if o.repro != "" {
		return replay(w, o.repro, vopts)
	}
	if o.selftest {
		return selftest(w, o, vopts)
	}
	return sweep(ctx, w, o, vopts)
}

// sweep runs o.trials independent seeded trials with bounded
// parallelism, shrinks and persists every failure, and reports failures
// in trial order (sched.Run's error slice is index-ordered, so the
// output is deterministic regardless of completion order).
func sweep(ctx context.Context, w io.Writer, o options, vopts oracle.Options) error {
	specs := make([]synth.RandSpec, o.trials)
	errs := sched.Run(ctx, o.trials, sched.Options{Parallelism: o.jobs},
		func(ctx context.Context, i int) error {
			specs[i] = synth.RandSpec{Seed: o.seed + int64(i), Units: o.units}
			return oracle.Verify(synth.RandomProgram(specs[i]), vopts)
		})

	failures := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failures++
		fmt.Fprintf(w, "FAIL %v: %v\n", specs[i], err)
		if path, rerr := shrinkAndWrite(o.out, specs[i], err, vopts); rerr != nil {
			fmt.Fprintf(w, "  repro not written: %v\n", rerr)
		} else if path != "" {
			fmt.Fprintf(w, "  repro: %s\n", path)
		}
	}
	fmt.Fprintf(w, "dpbpfuzz: %d trials, %d failures\n", o.trials, failures)
	if failures > 0 {
		return fmt.Errorf("%d of %d trials failed", failures, o.trials)
	}
	return nil
}

// shrinkAndWrite minimises a failing spec and persists it. A failure
// that does not reproduce deterministically (e.g. a trial that a
// cancelled sweep never started) is reported but yields no repro file.
func shrinkAndWrite(dir string, spec synth.RandSpec, verr error, vopts oracle.Options) (string, error) {
	failing := func(s synth.RandSpec) bool {
		return oracle.Verify(synth.RandomProgram(s), vopts) != nil
	}
	if !failing(spec) {
		return "", nil
	}
	shrunk := oracle.Shrink(spec, failing)
	return oracle.WriteRepro(dir, oracle.Repro{
		Seed: shrunk.Seed, Units: shrunk.Units, Omit: shrunk.Omit,
		MaxInsts: vopts.MaxInsts, Error: verr.Error(),
	})
}

// replay re-runs the verification a repro file describes. The repro's
// recorded instruction budget overrides -insts so the replay matches the
// original trial.
func replay(w io.Writer, path string, vopts oracle.Options) error {
	r, err := oracle.LoadRepro(path)
	if err != nil {
		return err
	}
	vopts.MaxInsts = r.MaxInsts
	spec := r.Spec()
	if err := oracle.Verify(synth.RandomProgram(spec), vopts); err != nil {
		fmt.Fprintf(w, "FAIL %v: %v\n", spec, err)
		return fmt.Errorf("repro %s still fails", path)
	}
	fmt.Fprintf(w, "PASS %v: repro no longer fails\n", spec)
	return nil
}

// selftest proves the detect-shrink-persist pipeline end to end: with an
// artificial stream corruption injected into the "micro" ablation, the
// base spec must fail verification, shrink to no more units than it
// started with, and round-trip through a repro file that still fails.
func selftest(w io.Writer, o options, vopts oracle.Options) error {
	spec := synth.RandSpec{Seed: o.seed, Units: o.units}
	verr := oracle.Verify(synth.RandomProgram(spec), vopts)
	if verr == nil {
		return fmt.Errorf("selftest: injected fault at seq %d not detected", vopts.Fault.Seq)
	}
	fmt.Fprintf(w, "selftest: fault detected: %v\n", verr)

	path, err := shrinkAndWrite(o.out, spec, verr, vopts)
	if err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	if path == "" {
		return fmt.Errorf("selftest: failure did not reproduce for shrinking")
	}
	r, err := oracle.LoadRepro(path)
	if err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	replayOpts := vopts
	replayOpts.MaxInsts = r.MaxInsts
	if oracle.Verify(synth.RandomProgram(r.Spec()), replayOpts) == nil {
		return fmt.Errorf("selftest: shrunk repro %s no longer fails", path)
	}
	fmt.Fprintf(w, "selftest: shrunk %v -> %v, repro %s\n", spec, r.Spec(), path)
	return nil
}
