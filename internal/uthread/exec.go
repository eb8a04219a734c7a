package uthread

import (
	"fmt"

	"dpbp/internal/isa"
)

// Env supplies Execute's view of the machine at spawn time: live-in
// registers and memory come from the primary thread's architectural state
// at the spawn point, and Vp_Inst/Ap_Inst query the back-end predictors.
// The timing core's spawn does not go through it: it runs Step against
// the machine's own registers, memory and predictors.
type Env struct {
	// ReadReg returns the primary thread's value of a live-in register
	// at spawn.
	ReadReg func(isa.Reg) isa.Word
	// LoadMem returns the memory word at addr as of spawn.
	LoadMem func(isa.Addr) isa.Word
	// PredictValue serves Vp_Inst: the predicted value of the pruned
	// instruction at pc, ahead instances ahead. ok=false means the
	// predictor has no entry (the microthread then uses zero, and its
	// prediction is simply likely to be wrong — as in hardware).
	PredictValue func(pc isa.Addr, ahead int) (isa.Word, bool)
	// PredictAddr serves Ap_Inst analogously for base-register values.
	PredictAddr func(pc isa.Addr, ahead int) (isa.Word, bool)

	// eaScratch backs Result.LoadedEAs so repeated Execute calls with the
	// same Env do not allocate. A Result's LoadedEAs is therefore only
	// valid until the next Execute with that Env; callers that keep the
	// addresses copy them out first.
	eaScratch []isa.Addr
	// vals holds the value each routine instruction produced, indexed by
	// slot. Every slot is written before a later one reads it, so the
	// buffer is reused without clearing.
	vals []isa.Word
}

// Outcome is a routine's pre-computed branch outcome.
type Outcome struct {
	// Taken is the pre-computed direction (true for indirect branches).
	Taken bool
	// Target is the pre-computed next PC.
	Target isa.Addr
}

// Result is the functional outcome of executing a routine.
type Result struct {
	Outcome
	// LoadedEAs lists the memory addresses the routine read; the SSMT
	// core watches primary-thread stores to them between spawn and the
	// target branch to detect memory-dependence violations.
	LoadedEAs []isa.Addr
	// Executed counts the instructions run.
	Executed int
}

// Read names the word a routine instruction takes from the machine
// rather than from its operands. Step leaves that read to its caller.
type Read uint8

const (
	// ReadNone: the operands determine the value.
	ReadNone Read = iota
	// ReadMem: a load's value is the memory word at the address Step
	// returns.
	ReadMem
	// ReadValue: a Vp_Inst's value is the value predictor's prediction
	// for OrigPC, Ahead instances ahead. When the predictor has no entry
	// the value is zero, and the prediction is simply likely to be wrong
	// — as in hardware.
	ReadValue
	// ReadAddr: an Ap_Inst's value is the address predictor's prediction,
	// likewise.
	ReadAddr
)

// Step executes instruction i of r: the micro-op semantics that Execute
// and the timing core's one-pass spawn share. vals holds the values of
// the instructions before i, and regs the primary thread's registers at
// spawn, which live-in operands read. An ALU instruction's value goes to
// vals[i], and the Store_PCache that ends every routine writes the
// outcome to out. For a load, Vp_Inst or Ap_Inst, Step returns the read
// the caller must make, and the load's address, and the caller stores
// the word it reads in vals[i]. Step panics on an op a routine cannot
// hold (a builder bug), never on data.
func (r *Routine) Step(i int, vals []isa.Word, regs *[isa.NumRegs]isa.Word, out *Outcome) (Read, isa.Addr) {
	mi := &r.Insts[i]
	s := &r.Slots[i]
	var src [2]isa.Word
	for k, p := range s.Prod {
		if p >= 0 {
			src[k] = vals[p]
		} else if reg := s.LiveIn[k]; reg != isa.RZero {
			src[k] = regs[reg]
		}
	}
	in := &mi.Inst
	switch {
	case isa.IsALU(in.Op):
		vals[i] = isa.EvalALU(in.Op, src[0], src[1], in.Imm)
	case in.Op == isa.OpLoad:
		return ReadMem, isa.Addr(src[0] + in.Imm)
	case in.Op == isa.OpVpInst:
		return ReadValue, 0
	case in.Op == isa.OpApInst:
		return ReadAddr, 0
	case in.Op == isa.OpStorePCache:
		if mi.BranchOp == isa.OpJmpInd {
			*out = Outcome{Taken: true, Target: isa.Addr(src[0])}
		} else if isa.BranchTaken(mi.BranchOp, src[0], src[1]) {
			*out = Outcome{Taken: true, Target: r.BranchTarget}
		} else {
			*out = Outcome{Target: r.BranchPC + 1}
		}
	default:
		panic(fmt.Sprintf("uthread: illegal op %v in routine", in.Op))
	}
	return ReadNone, 0
}

// Execute runs a routine functionally against env, one Step per
// instruction; the routine's last instruction, its one Store_PCache,
// writes the outcome (decode refuses any other routine). The timing core
// models when the result becomes available; Execute determines what the
// result is. It panics on malformed routines (builder bugs), never on
// data.
func Execute(r *Routine, env *Env) Result {
	if cap(env.vals) < len(r.Insts) {
		env.vals = make([]isa.Word, len(r.Insts))
	}
	vals := env.vals[:len(r.Insts)]
	var regs [isa.NumRegs]isa.Word
	for reg := range regs {
		regs[reg] = env.ReadReg(isa.Reg(reg))
	}
	res := Result{LoadedEAs: env.eaScratch[:0]}

	for i := range r.Insts {
		mi := &r.Insts[i]
		res.Executed++
		switch read, ea := r.Step(i, vals, &regs, &res.Outcome); read {
		case ReadMem:
			vals[i] = env.LoadMem(ea)
			res.LoadedEAs = append(res.LoadedEAs, ea)
		case ReadValue:
			vals[i], _ = env.PredictValue(mi.OrigPC, mi.Ahead)
		case ReadAddr:
			vals[i], _ = env.PredictAddr(mi.OrigPC, mi.Ahead)
		}
	}
	env.eaScratch = res.LoadedEAs
	return res
}
