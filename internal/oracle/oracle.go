// Package oracle is the differential-verification subsystem: it checks
// that the timing core is architecturally transparent by running seeded
// random programs (internal/synth's Random generator) through the
// functional emulator and the timing model simultaneously and diffing
// everything architectural.
//
// Three properties are verified for every program:
//
//  1. Emulator/timing equivalence. cpu.Machine is execution-driven: it
//     steps a private emulator down the correct path. A lockstep
//     *reference* emulator, advanced from the timing core's OnRetire
//     hook, must produce a bit-identical retirement record stream (PCs,
//     source/destination values, effective addresses, branch outcomes)
//     and an identical final register file and memory image.
//  2. SSMT-inertness. Subordinate microthreads are pure speculation
//     (Section 4 of the paper): with microthreads off, on, or under any
//     pruning/abort/spawn-policy ablation, the architectural stream and
//     final state must be identical — only cycle counts may differ.
//     Because every ablation is diffed against the same deterministic
//     reference emulation, inertness across ablations follows from each
//     run's equivalence, plus explicit cross-run checks of the retired
//     instruction and branch counts.
//  3. Stats algebra. After every run the Result's counters must satisfy
//     the conservation laws the model implies (see CheckStats), and an
//     attached obs.Tracer's per-kind counts must reconcile with the
//     legacy statistics (see CheckTrace).
//
// A failing random program is shrunk (Shrink) to a minimal failing unit
// subset and written to testdata/repros as JSON + disassembly.
package oracle

import (
	"context"
	"fmt"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/emu"
	"dpbp/internal/obs"
	"dpbp/internal/program"
)

// NamedConfig is one ablation: a timing configuration with a stable name
// for divergence reports.
type NamedConfig struct {
	Name   string
	Config cpu.Config
}

// Ablations returns the default configuration sweep: the baseline
// machine, the full microthread mechanism, and spawn-policy/pruning
// ablations that exercise aborts disabled, wrong-path spawning,
// overhead-only injection, throttling, and the perfect-promoted mode.
// All of them must retire the same architectural stream.
func Ablations() []NamedConfig {
	return []NamedConfig{
		{Name: "baseline", Config: cpu.Config{Mode: cpu.ModeBaseline}},
		{Name: "micro", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, UsePredictions: true, Pruning: true,
			AbortEnabled: true, RebuildOnViolation: true,
		}},
		{Name: "micro-noabort-wrongpath", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, UsePredictions: true,
			WrongPathSpawns: true, RebuildOnViolation: true,
		}},
		{Name: "micro-overhead-throttle", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, AbortEnabled: true, Throttle: true,
		}},
		{Name: "potential", Config: cpu.Config{Mode: cpu.ModePerfectPromoted}},
		{Name: "micro-tage", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, UsePredictions: true, Pruning: true,
			AbortEnabled: true, RebuildOnViolation: true,
			BPred: bpred.Spec{Name: bpred.BackendTAGE},
		}},
		{Name: "micro-h2p-gate", Config: cpu.Config{
			Mode: cpu.ModeMicrothread, UsePredictions: true, Pruning: true,
			AbortEnabled: true, RebuildOnViolation: true,
			BPred: bpred.Spec{Name: bpred.BackendH2P}, H2PSpawnGate: true,
		}},
	}
}

// Fault injects an artificial stream corruption: before comparison, the
// timing-side record with sequence number Seq has its Taken bit flipped
// in the named configuration ("" corrupts every configuration). It
// exists so tests can prove the harness detects and shrinks real
// divergences; Verify with a nil Fault performs no perturbation.
type Fault struct {
	Config string
	Seq    uint64
}

func (f *Fault) matches(config string, seq uint64) bool {
	return f != nil && seq == f.Seq && (f.Config == "" || f.Config == config)
}

// Options parameterises Verify.
type Options struct {
	// MaxInsts bounds each run (default 24_000 primary instructions).
	MaxInsts uint64
	// Configs is the ablation sweep (default Ablations()).
	Configs []NamedConfig
	// Trace attaches an obs tracer to microthread configurations and
	// reconciles its per-kind counts against the legacy statistics.
	Trace bool
	// Fault optionally injects a stream corruption (harness self-test).
	Fault *Fault
}

// Divergence is a verification failure: where two models disagreed, or
// where a run's statistics broke a conservation law.
type Divergence struct {
	Program string
	Config  string
	Kind    string // "stream", "regs", "mem", "stats", "trace", "cross"
	Seq     uint64
	Detail  string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("oracle: %s divergence in %q under %q at seq %d: %s",
		d.Kind, d.Program, d.Config, d.Seq, d.Detail)
}

// runSummary carries the architectural totals compared across ablations.
type runSummary struct {
	insts    uint64
	branches uint64
}

// Verify runs prog under every configuration in the sweep and returns
// the first divergence found, or nil if every check passes.
func Verify(prog *program.Program, opts Options) error {
	if opts.MaxInsts == 0 {
		opts.MaxInsts = 24_000
	}
	if opts.Configs == nil {
		opts.Configs = Ablations()
	}
	var first *runSummary
	var firstName string
	for _, nc := range opts.Configs {
		sum, err := verifyOne(prog, nc, opts)
		if err != nil {
			return err
		}
		if first == nil {
			first, firstName = sum, nc.Name
			continue
		}
		if sum.insts != first.insts || sum.branches != first.branches {
			return &Divergence{
				Program: prog.Name, Config: nc.Name, Kind: "cross",
				Detail: fmt.Sprintf("retired insts/branches %d/%d differ from %q's %d/%d",
					sum.insts, sum.branches, firstName, first.insts, first.branches),
			}
		}
	}
	return nil
}

// verifyOne runs prog under one configuration with a lockstep reference
// emulator and checks the stream, the final state and the statistics.
func verifyOne(prog *program.Program, nc NamedConfig, opts Options) (*runSummary, error) {
	cfg := nc.Config
	cfg.MaxInsts = opts.MaxInsts

	ref := emu.New(prog)
	var refRec emu.Record
	var div *Divergence
	cfg.OnRetire = func(_ int, rec *emu.Record) {
		if div != nil {
			return
		}
		got := *rec
		if opts.Fault.matches(nc.Name, got.Seq) {
			got.Taken = !got.Taken
		}
		if !ref.Step(&refRec) {
			div = &Divergence{
				Program: prog.Name, Config: nc.Name, Kind: "stream", Seq: got.Seq,
				Detail: "timing core retired an instruction after the reference emulator halted",
			}
			return
		}
		if got != refRec {
			div = &Divergence{
				Program: prog.Name, Config: nc.Name, Kind: "stream", Seq: got.Seq,
				Detail: diffRecords(&got, &refRec),
			}
		}
	}

	var tr *obs.Tracer
	if opts.Trace && cfg.Mode == cpu.ModeMicrothread {
		tr = obs.NewTracer()
		tr.SetLimit(1) // counters only; the event buffer is not needed
		cfg.Obs = tr
	}

	m := cpu.NewMachine()
	res, err := m.RunContext(context.Background(), prog, cfg)
	if err != nil {
		return nil, err
	}
	if div != nil {
		return nil, div
	}

	// Final architectural state: the timing core's internal emulator
	// must agree with the reference on every register and memory word.
	regs := m.ArchRegs()
	if regs != ref.Regs {
		for r := range regs {
			if regs[r] != ref.Regs[r] {
				return nil, &Divergence{
					Program: prog.Name, Config: nc.Name, Kind: "regs", Seq: res.Insts,
					Detail: fmt.Sprintf("final r%d = %d, reference %d", r, regs[r], ref.Regs[r]),
				}
			}
		}
	}
	if d := diffMem(m.ArchMem(nil), ref.Mem.Snapshot(nil)); d != "" {
		return nil, &Divergence{
			Program: prog.Name, Config: nc.Name, Kind: "mem", Seq: res.Insts, Detail: d,
		}
	}

	if err := CheckStats(res, cfg.Canonical()); err != nil {
		return nil, &Divergence{
			Program: prog.Name, Config: nc.Name, Kind: "stats", Seq: res.Insts,
			Detail: err.Error(),
		}
	}
	if tr != nil {
		if err := CheckTrace(tr, res); err != nil {
			return nil, &Divergence{
				Program: prog.Name, Config: nc.Name, Kind: "trace", Seq: res.Insts,
				Detail: err.Error(),
			}
		}
	}
	return &runSummary{insts: res.Insts, branches: res.Branches}, nil
}

// diffRecords names the fields on which two retirement records differ.
func diffRecords(got, want *emu.Record) string {
	switch {
	case got.Seq != want.Seq:
		return fmt.Sprintf("seq %d vs %d", got.Seq, want.Seq)
	case got.PC != want.PC:
		return fmt.Sprintf("pc %d vs %d", got.PC, want.PC)
	case got.Inst != want.Inst:
		return fmt.Sprintf("inst %+v vs %+v", got.Inst, want.Inst)
	case got.NextPC != want.NextPC:
		return fmt.Sprintf("nextPC %d vs %d", got.NextPC, want.NextPC)
	case got.Taken != want.Taken:
		return fmt.Sprintf("taken %v vs %v at pc %d", got.Taken, want.Taken, got.PC)
	case got.DstVal != want.DstVal:
		return fmt.Sprintf("dstVal %d vs %d at pc %d", got.DstVal, want.DstVal, got.PC)
	case got.EA != want.EA:
		return fmt.Sprintf("ea %d vs %d at pc %d", got.EA, want.EA, got.PC)
	case got.SrcVal != want.SrcVal || got.SrcReg != want.SrcReg || got.NSrc != want.NSrc:
		return fmt.Sprintf("sources %v/%v vs %v/%v at pc %d",
			got.SrcReg, got.SrcVal, want.SrcReg, want.SrcVal, got.PC)
	default:
		return "records differ"
	}
}

// diffMem reports the first difference between two memory snapshots, or
// "" if they are identical.
func diffMem(got, want []emu.MemWord) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("mem[%d] = (addr %d, val %d), reference (addr %d, val %d)",
				i, got[i].Addr, got[i].Val, want[i].Addr, want[i].Val)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("memory image has %d nonzero words, reference %d", len(got), len(want))
	}
	return ""
}
