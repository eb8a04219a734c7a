package uthread

import (
	"fmt"
	"slices"
	"strings"

	"dpbp/internal/isa"
	"dpbp/internal/path"
)

// MicroInst is one instruction of a microthread routine, carrying the
// metadata the SSMT core needs to execute it.
type MicroInst struct {
	Inst isa.Inst
	// OrigPC is the primary-thread PC the instruction was extracted from
	// (or, for Vp_Inst/Ap_Inst, the PC of the pruned instruction whose
	// predictor entry must be queried).
	OrigPC isa.Addr
	// Ahead is the predictor ahead-distance for Vp_Inst/Ap_Inst: how many
	// dynamic instances of OrigPC lie between the last trained instance
	// at spawn time and the instance being pre-computed.
	Ahead int
	// BranchOp, for the Store_PCache instruction, is the original
	// terminating branch opcode; executing Store_PCache evaluates it on
	// Src1/Src2 to produce the outcome.
	BranchOp isa.Op
}

// Routine is a constructed microthread: the instruction sequence plus the
// spawn metadata the SSMT core needs (Sections 4.2.2 and 4.3).
type Routine struct {
	// PathID identifies the difficult path the routine predicts.
	PathID path.ID
	// BranchPC is the terminating branch being pre-computed.
	BranchPC isa.Addr
	// BranchTarget is the taken target for conditional terminating
	// branches (indirect branches compute their target).
	BranchTarget isa.Addr
	// SpawnPC is the primary-thread instruction whose fetch triggers the
	// spawn.
	SpawnPC isa.Addr
	// ReadyAt is the cycle the Microthread Builder finishes the routine
	// (Section 4.2.2): no primary context may spawn it earlier. The SSMT
	// core sets it before installing the routine, so it travels with the
	// routine into a MicroRAM that co-running contexts share.
	ReadyAt uint64
	// SeqDelta is the dynamic-instruction separation between the spawn
	// point and the terminating branch, fixed at construction time; the
	// Store_PCache write targets Seq(spawn) + SeqDelta.
	SeqDelta uint64
	// Insts is the routine body; the last instruction is Store_PCache.
	Insts []MicroInst
	// Slots is Insts decoded once, at build time, for the loop every
	// spawn runs, which executes each instruction (Step) and schedules
	// it in the same iteration. Slots[i] describes Insts[i].
	Slots []Slot
	// LiveIns are the registers the routine reads from the primary
	// thread's architectural state at spawn.
	LiveIns []isa.Reg
	// ExpectedTakens lists the PCs of the taken branches the primary
	// thread must execute between the spawn point and the terminating
	// branch, in order. The abort mechanism (Path_History) compares the
	// front end's taken-branch stream against this sequence; a deviation
	// aborts the spawn.
	ExpectedTakens []isa.Addr
	// PrefixTakens lists the PCs of the path's taken branches that
	// precede the spawn point. The spawn-time Path_History screen
	// compares them against the front end's recent taken-branch history;
	// a mismatch means this dynamic instance of the spawn PC is not on
	// the routine's path, and the spawn is aborted before a microcontext
	// is allocated (the paper's 67% bucket).
	PrefixTakens []isa.Addr
	// MemDepSpeculative reports that the routine contains a load; Build
	// sets it for every such routine. Any load speculates that no
	// primary-thread store between the spawn and the branch writes its
	// address.
	MemDepSpeculative bool
	// DepChain is the longest dependence chain through the routine in
	// instructions (Figure 8's metric).
	DepChain int
	// Pruned reports whether pruning was applied during construction.
	Pruned bool
	// PrunedSubtrees counts the Vp_Inst/Ap_Inst substitutions made.
	PrunedSubtrees int
}

// Size returns the routine length in instructions.
func (r *Routine) Size() int { return len(r.Insts) }

// String renders the routine for debugging.
func (r *Routine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routine path=%x branch=%d spawn=%d delta=%d livein=%v chain=%d\n",
		uint64(r.PathID), r.BranchPC, r.SpawnPC, r.SeqDelta, r.LiveIns, r.DepChain)
	for i, mi := range r.Insts {
		fmt.Fprintf(&b, "  %2d: %v  (from %d)\n", i, mi.Inst, mi.OrigPC)
	}
	return b.String()
}

// Slot is one routine instruction decoded for the per-spawn loops, so a
// spawn reads a table instead of decoding Insts again.
type Slot struct {
	// Prod holds, per source operand in ReadsInto order, the index of
	// the last earlier routine instruction that writes the operand, or
	// -1 when none does.
	Prod [2]int32
	// LiveIn holds, per operand whose Prod is -1, the primary-thread
	// register the operand reads at spawn. It stays RZero for a missing
	// operand, for RZero itself and for a temporary the routine never
	// writes: all three read 0 and are ready at cycle 0.
	LiveIn [2]isa.Reg
	// Load marks a load, which needs a functional unit and an L1 port in
	// the same cycle; the memory system sets its latency.
	Load bool
	// Latency is the execution latency of any other instruction: 2
	// cycles for a Vp_Inst/Ap_Inst predictor query, isa.Latency
	// otherwise.
	Latency uint8
}

// decode builds the Slots of insts and returns them with the longest
// register-dependence chain through insts, in instructions (Figure 8's
// metric; live-in values have depth 0). It panics unless insts ends in
// the routine's one Store_PCache (a builder bug), so Execute and the
// timing core's spawn, which run every slot, always write an outcome.
func decode(insts []MicroInst) (slots []Slot, chain int) {
	if n := len(insts); n == 0 || insts[n-1].Inst.Op != isa.OpStorePCache {
		panic("uthread: routine missing Store_PCache")
	}
	slots = make([]Slot, len(insts))
	// writer holds 1 + the index of each register's latest writer (0 for
	// none yet), and depth that writer's chain length.
	var writer, depth [MicroRegs]int32
	for i := range insts {
		in := &insts[i].Inst
		if in.Op == isa.OpStorePCache && i < len(insts)-1 {
			panic(fmt.Sprintf("uthread: Store_PCache at routine instruction %d of %d", i, len(insts)))
		}
		s := &slots[i]
		s.Prod = [2]int32{-1, -1}
		var buf [2]isa.Reg
		n := in.ReadsInto(&buf)
		d := int32(0)
		for k, r := range buf[:n] {
			switch {
			case writer[r] > 0:
				s.Prod[k] = writer[r] - 1
				d = max(d, depth[r])
			case r < isa.NumRegs:
				s.LiveIn[k] = r
			}
		}
		d++
		chain = max(chain, int(d))
		switch in.Op {
		case isa.OpLoad:
			s.Load = true
		case isa.OpVpInst, isa.OpApInst:
			s.Latency = 2
		default:
			s.Latency = uint8(isa.Latency(in.Op))
		}
		if dst, ok := in.Writes(); ok {
			writer[dst] = int32(i) + 1
			depth[dst] = d
		}
	}
	return slots, chain
}

// liveInsOf returns the primary-thread registers a routine reads at
// spawn, excluding RZero, in first-read order.
func liveInsOf(slots []Slot) []isa.Reg {
	var live []isa.Reg
	for _, s := range slots {
		for _, r := range s.LiveIn {
			if r != isa.RZero && !slices.Contains(live, r) {
				live = append(live, r)
			}
		}
	}
	return live
}
