package uthread

import (
	"fmt"

	"dpbp/internal/isa"
)

// Env supplies a microthread's view of the machine at spawn time: live-in
// registers and memory come from the primary thread's architectural state
// at the spawn point, and Vp_Inst/Ap_Inst query the back-end predictors.
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

// Result is the functional outcome of executing a routine.
type Result struct {
	// Taken is the pre-computed direction (true for indirect branches).
	Taken bool
	// Target is the pre-computed next PC.
	Target isa.Addr
	// LoadedEAs lists the memory addresses the routine read; the SSMT
	// core watches primary-thread stores to them between spawn and the
	// target branch to detect memory-dependence violations.
	LoadedEAs []isa.Addr
	// Executed counts the instructions run.
	Executed int
}

// Execute runs a routine functionally against env. The timing core models
// when the result becomes available; Execute determines what the result
// is. It panics on malformed routines (builder bugs), never on data.
func Execute(r *Routine, env *Env) Result {
	if cap(env.vals) < len(r.Insts) {
		env.vals = make([]isa.Word, len(r.Insts))
	}
	vals := env.vals[:len(r.Insts)]
	res := Result{LoadedEAs: env.eaScratch[:0]}

	for i := range r.Insts {
		mi := &r.Insts[i]
		s := &r.Slots[i]
		var src [2]isa.Word
		for k, p := range s.Prod {
			if p >= 0 {
				src[k] = vals[p]
			} else if reg := s.LiveIn[k]; reg != isa.RZero {
				src[k] = env.ReadReg(reg)
			}
		}
		res.Executed++
		in := &mi.Inst
		switch {
		case isa.IsALU(in.Op):
			vals[i] = isa.EvalALU(in.Op, src[0], src[1], in.Imm)

		case in.Op == isa.OpLoad:
			ea := isa.Addr(src[0] + in.Imm)
			vals[i] = env.LoadMem(ea)
			res.LoadedEAs = append(res.LoadedEAs, ea)

		case in.Op == isa.OpVpInst:
			vals[i], _ = env.PredictValue(mi.OrigPC, mi.Ahead)

		case in.Op == isa.OpApInst:
			vals[i], _ = env.PredictAddr(mi.OrigPC, mi.Ahead)

		case in.Op == isa.OpStorePCache:
			if mi.BranchOp == isa.OpJmpInd {
				res.Taken = true
				res.Target = isa.Addr(src[0])
			} else {
				res.Taken = isa.BranchTaken(mi.BranchOp, src[0], src[1])
				if res.Taken {
					res.Target = r.BranchTarget
				} else {
					res.Target = r.BranchPC + 1
				}
			}
			env.eaScratch = res.LoadedEAs
			return res

		default:
			panic(fmt.Sprintf("uthread: illegal op %v in routine", in.Op))
		}
	}
	panic("uthread: routine missing Store_PCache")
}
