// Package oracle is the differential-verification subsystem: it checks
// that the timing core is architecturally transparent by running seeded
// random programs (internal/synth's Random generator) through the
// functional emulator and the timing model simultaneously and diffing
// everything architectural.
//
// Every run is checked the same way, whether the machine has one
// primary context (Verify) or K SMT contexts (VerifySMT); a solo run is
// a one-context machine with nothing shared. Three properties are
// verified:
//
//  1. Emulator/timing equivalence. cpu.Machine is execution-driven: it
//     steps a private emulator down the correct path. One lockstep
//     *reference* emulator per primary context, advanced from the timing
//     core's OnRetire hook, must produce a bit-identical retirement
//     record stream (PCs, source/destination values, effective
//     addresses, branch outcomes) and an identical final register file
//     and memory image. Co-runners may change each other's timing, never
//     each other's architecture.
//  2. SSMT-inertness. Subordinate microthreads are pure speculation
//     (Section 4 of the paper): with microthreads off, on, or under any
//     pruning/abort/spawn-policy ablation, the architectural stream and
//     final state must be identical — only cycle counts may differ.
//     Because every ablation is diffed against the same deterministic
//     reference emulation, inertness across ablations follows from each
//     run's equivalence, plus explicit cross-run checks of the retired
//     instruction and branch counts.
//  3. Stats algebra. After every run each context's counters must
//     satisfy the conservation laws the model implies (CheckStats), an
//     SMT run's shared structures and machine-wide facts must satisfy
//     theirs (CheckSMTStats), and an attached obs.Tracer's per-kind
//     counts must reconcile with the legacy statistics (CheckTrace).
//
// A failing random program is shrunk (Shrink) to a minimal failing unit
// subset and written to testdata/repros as JSON + disassembly.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"reflect"

	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/emu"
	"dpbp/internal/isa"
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
// timing-side record with sequence number Seq retired by primary context
// Ctx (0 outside SMT) has its Taken bit flipped in the named
// configuration ("" corrupts every configuration). It exists so tests can
// prove the harness detects and shrinks real divergences; a nil Fault
// performs no perturbation.
type Fault struct {
	Config string
	Ctx    int
	Seq    uint64
}

func (f *Fault) matches(config string, ctx int, seq uint64) bool {
	return f != nil && seq == f.Seq && ctx == f.Ctx && (f.Config == "" || f.Config == config)
}

// Options parameterises Verify and VerifySMT.
type Options struct {
	// MaxInsts bounds each primary context's run (default 24_000
	// instructions).
	MaxInsts uint64
	// Configs is Verify's ablation sweep (default Ablations()); VerifySMT
	// runs the one configuration it is given.
	Configs []NamedConfig
	// Trace attaches an obs tracer to microthread configurations (one per
	// machine, seeing every context's events) and reconciles its per-kind
	// counts against the legacy statistics.
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

// Verify runs prog under every configuration in the sweep and returns
// the first divergence found, or nil if every check passes.
func Verify(prog *program.Program, opts Options) error {
	if opts.Configs == nil {
		opts.Configs = Ablations()
	}
	var first *cpu.Result
	var firstName string
	for _, nc := range opts.Configs {
		ctxs, err := verifyRun([]*program.Program{prog}, nc, opts)
		if err != nil {
			return err
		}
		res := ctxs[0]
		if first == nil {
			first, firstName = res, nc.Name
			continue
		}
		if res.Insts != first.Insts || res.Branches != first.Branches {
			return &Divergence{
				Program: prog.Name, Config: nc.Name, Kind: "cross",
				Detail: fmt.Sprintf("retired insts/branches %d/%d differ from %q's %d/%d",
					res.Insts, res.Branches, firstName, first.Insts, first.Branches),
			}
		}
	}
	return nil
}

// VerifySMT runs progs as cfg.SMT's primary contexts and returns the
// first divergence found, or nil. cfg.SMT must be enabled and
// len(progs) must match its context count. Co-runners may change each
// other's timing arbitrarily but never each other's architecture. A
// 1-context run is additionally checked bit-identical to the solo run of
// the same workload: the bridge law the whole SMT wall rests on.
func VerifySMT(progs []*program.Program, cfg cpu.Config, opts Options) error {
	if !cfg.SMT.Enabled() {
		return errors.New("oracle: VerifySMT needs an SMT configuration")
	}
	name := "smt-" + cfg.SMT.FetchPolicy.String()
	ctxs, err := verifyRun(progs, NamedConfig{Name: name, Config: cfg}, opts)
	if err != nil || len(ctxs) != 1 {
		return err
	}
	// The bridge law: SMT with every other context empty is the solo
	// machine, so the solo run of the same program (verified in turn)
	// must produce the same Result bit for bit.
	solo := cfg
	solo.SMT = cpu.SMTConfig{}
	want, err := verifyRun(progs, NamedConfig{Name: name + "/solo", Config: solo}, opts)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(want[0], ctxs[0]) {
		return &Divergence{
			Program: progs[0].Name, Config: name, Kind: "cross",
			Detail: fmt.Sprintf("1-context SMT diverged from solo:\nsolo: %+v\nsmt:  %+v", want[0], ctxs[0]),
		}
	}
	return nil
}

// verifyRun runs progs under one configuration: the solo machine, or an
// SMT machine with one primary context per program when nc.Config
// enables SMT. Each context gets a lockstep reference emulator fed from
// the context index OnRetire passes. verifyRun checks every context's
// retirement stream and final architectural state, then the run's stats
// algebra and, for traced microthread runs, its trace reconciliation. It
// returns the per-context Results.
func verifyRun(progs []*program.Program, nc NamedConfig, opts Options) ([]*cpu.Result, error) {
	cfg := nc.Config
	cfg.MaxInsts = opts.MaxInsts
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = 24_000
	}
	smt := cfg.SMT.Enabled()
	ctxName := func(ctx int) string {
		if smt {
			return fmt.Sprintf("%s/ctx%d", nc.Name, ctx)
		}
		return nc.Name
	}

	refs := make([]*emu.Machine, len(progs))
	for i, p := range progs {
		refs[i] = emu.New(p)
	}
	var refRec emu.Record
	var div *Divergence
	cfg.OnRetire = func(ctx int, rec *emu.Record) {
		if div != nil {
			return
		}
		got := *rec
		if opts.Fault.matches(nc.Name, ctx, got.Seq) {
			got.Taken = !got.Taken
		}
		detail := ""
		if !refs[ctx].Step(&refRec) {
			detail = "timing core retired an instruction after the reference emulator halted"
		} else if got != refRec {
			detail = diffRecords(&got, &refRec)
		}
		if detail != "" {
			div = &Divergence{
				Program: progs[ctx].Name, Config: ctxName(ctx), Kind: "stream", Seq: got.Seq, Detail: detail,
			}
		}
	}

	var tr *obs.Tracer
	if opts.Trace && cfg.Mode == cpu.ModeMicrothread {
		tr = obs.NewTracer()
		tr.SetLimit(1) // counters only; the event buffer is not needed
		cfg.Obs = tr
	}

	var sres *cpu.SMTResult
	var ctxs []*cpu.Result
	var machines []*cpu.Machine
	if smt {
		s := cpu.NewSMTMachine()
		var err error
		if sres, err = s.RunContext(context.Background(), progs, cfg); err != nil {
			return nil, err
		}
		ctxs = sres.Contexts
		for i := range ctxs {
			machines = append(machines, s.Context(i))
		}
	} else {
		m := cpu.NewMachine()
		res, err := m.RunContext(context.Background(), progs[0], cfg)
		if err != nil {
			return nil, err
		}
		ctxs, machines = []*cpu.Result{res}, []*cpu.Machine{m}
	}
	if div != nil {
		return nil, div
	}

	// Final architectural state, per context: the timing core's emulator
	// must agree with the reference on every register and memory word.
	// Co-runners share timing resources, never architecture.
	for i, m := range machines {
		kind, detail := "regs", diffRegs(m.ArchRegs(), refs[i].Regs)
		if detail == "" {
			kind, detail = "mem", diffMem(m.ArchMem(nil), refs[i].Mem.Snapshot(nil))
		}
		if detail != "" {
			return nil, &Divergence{
				Program: progs[i].Name, Config: ctxName(i), Kind: kind, Seq: ctxs[i].Insts, Detail: detail,
			}
		}
	}

	canon := cfg.Canonical()
	var err error
	if smt {
		err = CheckSMTStats(sres, canon)
	} else {
		err = CheckStats(ctxs[0], canon)
	}
	kind := "stats"
	if err == nil && tr != nil {
		kind, err = "trace", reconcileTrace(tr, ctxs, cfg.SMT.SharedPCache, cfg.SMT.SharedPathCache)
	}
	if err != nil {
		return nil, &Divergence{
			Program: progs[0].Name, Config: nc.Name, Kind: kind, Seq: ctxs[0].Insts, Detail: err.Error(),
		}
	}
	return ctxs, nil
}

// diffRegs names the first register on which two final register files
// differ, or returns "" if they are identical.
func diffRegs(got, want [isa.NumRegs]isa.Word) string {
	for r := range got {
		if got[r] != want[r] {
			return fmt.Sprintf("final r%d = %d, reference %d", r, got[r], want[r])
		}
	}
	return ""
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
