package uthread

import (
	"dpbp/internal/isa"
	"dpbp/internal/path"
)

// MicroRegs is the size of a microcontext register file. Registers below
// isa.NumRegs are live-ins read from the primary thread at spawn;
// registers at and above isa.NumRegs are microthread-local temporaries
// allocated by the MCB's renamer. Renaming in-slice destinations into
// temporaries removes every WAR hazard between the slice and the primary
// thread's architectural state, so a spawn point anywhere after the
// extraction termination point reads consistent live-ins.
const MicroRegs = 256

// BuildConfig tunes the Microthread Builder.
type BuildConfig struct {
	// MCBCapacity bounds the routine length; data-flow extraction
	// terminates when the MCB fills (termination rule 1).
	MCBCapacity int
	// Pruning enables Vp_Inst/Ap_Inst substitution of predictor-confident
	// sub-trees (Section 4.2.5).
	Pruning bool
	// MoveElim enables move elimination in the MCB (Section 4.2.3).
	MoveElim bool
	// ConstProp enables constant propagation in the MCB (Section 4.2.3).
	ConstProp bool
}

// DefaultBuildConfig returns the paper's configuration: a 64-entry MCB
// with both basic optimisations on; pruning is the experiment variable.
func DefaultBuildConfig(pruning bool) BuildConfig {
	return BuildConfig{MCBCapacity: 64, Pruning: pruning, MoveElim: true, ConstProp: true}
}

// BuildStats aggregates builder activity across a run.
type BuildStats struct {
	Builds            uint64
	TerminatedMemDep  uint64 // rule 3: memory dependence
	TerminatedScope   uint64 // rule 2: left the path's scope (or PRB)
	TerminatedMCBFull uint64 // rule 1: MCB filled
	SizeSum           uint64
	ChainSum          uint64
	PrunedSubtrees    uint64
}

// AvgSize returns the mean routine size in instructions.
func (s *BuildStats) AvgSize() float64 {
	if s.Builds == 0 {
		return 0
	}
	return float64(s.SizeSum) / float64(s.Builds)
}

// AvgChain returns the mean longest-dependence-chain length.
func (s *BuildStats) AvgChain() float64 {
	if s.Builds == 0 {
		return 0
	}
	return float64(s.ChainSum) / float64(s.Builds)
}

// Builder is the Microthread Builder of Section 4.2.2. One instance exists
// per machine; it constructs one routine at a time (the build latency is
// modelled by the timing core).
type Builder struct {
	cfg   BuildConfig
	Stats BuildStats
}

// NewBuilder returns a builder with the given configuration.
func NewBuilder(cfg BuildConfig) *Builder {
	return &Builder{cfg: cfg}
}

// pruneRec records one Vp/Ap substitution made during extraction.
type pruneRec struct {
	seq    uint64 // position of the pruned inst (or address-pruned load)
	dst    isa.Reg
	origPC isa.Addr
	isAddr bool
}

// Build constructs a microthread routine for the terminating branch that
// just retired with sequence number branchSeq, on path id, with the given
// scope size and taken-branch history hist (the path tracker's contents at
// the branch, oldest first; nil disables the spawn-time prefix screen).
// It returns nil when construction is impossible (branch not in the PRB or
// not a terminating branch).
func (b *Builder) Build(prb *PRB, branchSeq uint64, id path.ID, scope int, hist []path.TakenBranch) *Routine {
	br := prb.BySeq(branchSeq)
	if br == nil || !br.Inst.IsTerminatingBranch() {
		return nil
	}

	// The scope window in sequence space. Clamp to the PRB contents;
	// running out of PRB is equivalent to leaving the scope (rule 2).
	ws := prb.OldestSeq()
	if scope > 0 && branchSeq >= uint64(scope-1) {
		if s := branchSeq - uint64(scope-1); s > ws {
			ws = s
		}
	}
	if ws > branchSeq {
		ws = branchSeq
	}

	// Backward data-flow extraction.
	needed := map[isa.Reg]bool{}
	var buf [2]isa.Reg
	n := br.Inst.ReadsInto(&buf)
	for i := 0; i < n; i++ {
		if buf[i] != isa.RZero {
			needed[buf[i]] = true
		}
	}

	included := map[uint64]bool{}
	loadedEAs := map[isa.Addr]bool{}
	var prunes []pruneRec
	addrPruned := map[uint64]isa.Reg{} // load seq -> Ap temp reg
	count := 1                         // the Store_PCache occupies one MCB slot
	hitMemDep := false
	hitMCBFull := false

	nextTempReg := isa.Reg(isa.NumRegs)
	nextTemp := func() isa.Reg {
		r := nextTempReg
		if int(nextTempReg) < MicroRegs-1 {
			nextTempReg++
		}
		return r
	}

	// termSeq is the youngest sequence number NOT examined successfully:
	// the spawn point must come after it so that live-in registers and
	// speculated memory are architecturally settled at spawn. It starts
	// just below the window and rises when extraction terminates early.
	termSeq := ws // spawn lower bound is termSeq (seq of first spawnable inst)

	if branchSeq > ws {
		for seq := branchSeq - 1; ; seq-- {
			e := prb.BySeq(seq)
			if e == nil {
				termSeq = seq + 1
				break
			}
			in := e.Inst

			if in.IsStore() && loadedEAs[e.EA] {
				// Rule 3: memory dependence. The store is not
				// included; spawning after it makes the stored
				// value architecturally visible to the slice's
				// loads.
				hitMemDep = true
				termSeq = seq + 1
				break
			}

			dst, writes := in.Writes()
			if writes && needed[dst] {
				if count >= b.cfg.MCBCapacity {
					hitMCBFull = true
					termSeq = seq + 1
					break
				}
				// Value pruning: a confident producer (and its
				// whole input sub-tree) is replaced by Vp_Inst.
				// Trivial producers are not worth a predictor
				// query.
				if b.cfg.Pruning && e.VConfident && in.Op != isa.OpLdi && in.Op != isa.OpMov {
					prunes = append(prunes, pruneRec{seq: seq, dst: dst, origPC: e.PC})
					delete(needed, dst)
					count++
					if seq == ws {
						break
					}
					continue
				}

				included[seq] = true
				delete(needed, dst)
				count++

				chaseBase := true
				if in.IsLoad() {
					loadedEAs[e.EA] = true
					// Address pruning: a confident base is
					// supplied by Ap_Inst into a fresh temp
					// instead of chasing its computation.
					if b.cfg.Pruning && e.AConfident && in.Src1 != isa.RZero {
						tmp := nextTemp()
						addrPruned[seq] = tmp
						prunes = append(prunes, pruneRec{seq: seq, dst: tmp, origPC: e.PC, isAddr: true})
						count++
						chaseBase = false
					}
				}
				if chaseBase {
					nn := in.ReadsInto(&buf)
					for i := 0; i < nn; i++ {
						if buf[i] != isa.RZero {
							needed[buf[i]] = true
						}
					}
				}
			}
			if seq == ws {
				break
			}
		}
	}

	// Any register still needed but written by a non-included instruction
	// younger than termSeq cannot exist: such a writer would have been
	// included (it satisfied a need) or terminated extraction. So every
	// live-in holds its consumer-visible value from termSeq onward, and
	// the earliest legal spawn is termSeq.
	minSpawn := termSeq
	if minSpawn > branchSeq {
		minSpawn = branchSeq
	}
	spawnEnt := prb.BySeq(minSpawn)
	if spawnEnt == nil {
		return nil
	}

	// Emit the routine in program order, renaming every in-slice
	// destination to a fresh microcontext temporary so slice-internal
	// defs never alias live-in reads.
	pruneBySeq := map[uint64][]pruneRec{}
	for _, p := range prunes {
		pruneBySeq[p.seq] = append(pruneBySeq[p.seq], p)
	}
	countPCIn := func(pc isa.Addr, from, to uint64) int {
		c := 0
		for s := from; s <= to; s++ {
			if e := prb.BySeq(s); e != nil && e.PC == pc {
				c++
			}
		}
		return c
	}

	cur := map[isa.Reg]isa.Reg{} // primary reg -> current temp holding it
	resolve := func(r isa.Reg) isa.Reg {
		if t, ok := cur[r]; ok {
			return t
		}
		return r
	}
	renameSources := func(in *isa.Inst) {
		var rb [2]isa.Reg
		nn := in.ReadsInto(&rb)
		if nn >= 1 {
			in.Src1 = resolve(in.Src1)
		}
		if nn == 2 {
			in.Src2 = resolve(in.Src2)
		}
	}

	var insts []MicroInst
	for seq := ws; seq < branchSeq; seq++ {
		for _, p := range pruneBySeq[seq] {
			op := isa.OpVpInst
			dst := p.dst
			if p.isAddr {
				op = isa.OpApInst
				// Ap temps are already fresh; no renaming.
			} else {
				t := nextTemp()
				cur[p.dst] = t
				dst = t
			}
			ahead := countPCIn(p.origPC, minSpawn, p.seq)
			if ahead < 1 {
				ahead = 1
			}
			insts = append(insts, MicroInst{
				Inst:   isa.Inst{Op: op, Dst: dst, Imm: isa.Word(ahead)},
				OrigPC: p.origPC,
				Ahead:  ahead,
			})
		}
		if included[seq] {
			e := prb.BySeq(seq)
			in := e.Inst
			if tmp, ok := addrPruned[seq]; ok {
				// Base register comes from the Ap temp; the
				// offset is unchanged.
				in.Src1 = tmp
			} else {
				renameSources(&in)
			}
			if dst, ok := in.Writes(); ok {
				t := nextTemp()
				cur[dst] = t
				in.Dst = t
			}
			insts = append(insts, MicroInst{Inst: in, OrigPC: e.PC})
		}
	}
	// The terminating branch becomes Store_PCache.
	brIn := br.Inst
	spc := isa.Inst{Op: isa.OpStorePCache, Src1: brIn.Src1, Src2: brIn.Src2}
	renameSources(&spc)
	insts = append(insts, MicroInst{Inst: spc, OrigPC: br.PC, BranchOp: brIn.Op})

	// MCB optimisations.
	if b.cfg.MoveElim {
		insts = moveElim(insts)
	}
	if b.cfg.ConstProp {
		insts = constProp(insts)
	}
	insts = deadCodeElim(insts)
	slots, chain := decode(insts)

	// Taken branches after the spawn point feed the in-flight abort
	// monitor; the path's taken branches before the spawn point feed
	// the spawn-time Path_History screen.
	var expected, prefix []isa.Addr
	for seq := minSpawn + 1; seq < branchSeq; seq++ {
		e := prb.BySeq(seq)
		if e == nil {
			continue
		}
		if e.Inst.IsBranch() && e.Taken {
			expected = append(expected, e.PC)
		}
	}
	for _, tb := range hist {
		if tb.Seq < minSpawn {
			prefix = append(prefix, tb.PC)
		}
	}
	hasLoads := false
	for _, mi := range insts {
		if mi.Inst.IsLoad() {
			hasLoads = true
		}
	}

	r := &Routine{
		PathID:            id,
		BranchPC:          br.PC,
		BranchTarget:      brIn.Target,
		SpawnPC:           spawnEnt.PC,
		SeqDelta:          branchSeq - minSpawn,
		Insts:             insts,
		Slots:             slots,
		LiveIns:           liveInsOf(slots),
		ExpectedTakens:    expected,
		PrefixTakens:      prefix,
		MemDepSpeculative: hasLoads,
		DepChain:          chain,
		Pruned:            b.cfg.Pruning,
		PrunedSubtrees:    len(prunes),
	}

	b.Stats.Builds++
	b.Stats.SizeSum += uint64(len(insts))
	b.Stats.ChainSum += uint64(r.DepChain)
	b.Stats.PrunedSubtrees += uint64(len(prunes))
	switch {
	case hitMemDep:
		b.Stats.TerminatedMemDep++
	case hitMCBFull:
		b.Stats.TerminatedMCBFull++
	default:
		b.Stats.TerminatedScope++
	}
	return r
}

// moveElim removes register copies by forwarding their sources into later
// readers (Section 4.2.3). A rename r->s is dropped when either r or s is
// redefined.
func moveElim(insts []MicroInst) []MicroInst {
	rename := map[isa.Reg]isa.Reg{}
	resolve := func(r isa.Reg) isa.Reg {
		if s, ok := rename[r]; ok {
			return s
		}
		return r
	}
	invalidate := func(dst isa.Reg) {
		delete(rename, dst)
		// Every pair with value dst is deleted no matter the visit
		// order, so map iteration cannot perturb the result.
		for k, v := range rename { //dpbplint:ignore simdeterminism deletes every k with v==dst; order-independent
			if v == dst {
				delete(rename, k)
			}
		}
	}
	out := insts[:0]
	for _, mi := range insts {
		var buf [2]isa.Reg
		n := mi.Inst.ReadsInto(&buf)
		if n >= 1 {
			mi.Inst.Src1 = resolve(mi.Inst.Src1)
		}
		if n == 2 {
			mi.Inst.Src2 = resolve(mi.Inst.Src2)
		}
		if mi.Inst.Op == isa.OpMov {
			src := mi.Inst.Src1 // already resolved
			invalidate(mi.Inst.Dst)
			if mi.Inst.Dst != src {
				rename[mi.Inst.Dst] = src
			}
			continue
		}
		if dst, ok := mi.Inst.Writes(); ok {
			invalidate(dst)
		}
		out = append(out, mi)
	}
	return out
}

// constProp folds ALU operations whose register inputs are known constants
// into Ldi instructions (Section 4.2.3). RZero is always the constant 0.
func constProp(insts []MicroInst) []MicroInst {
	consts := map[isa.Reg]isa.Word{}
	known := func(r isa.Reg) (isa.Word, bool) {
		if r == isa.RZero {
			return 0, true
		}
		v, ok := consts[r]
		return v, ok
	}
	out := insts[:0]
	for _, mi := range insts {
		op := mi.Inst.Op
		dst, writes := mi.Inst.Writes()
		switch {
		case op == isa.OpLdi:
			consts[dst] = mi.Inst.Imm
		case isa.IsALU(op):
			var buf [2]isa.Reg
			n := mi.Inst.ReadsInto(&buf)
			var vals [2]isa.Word
			allKnown := true
			for i := 0; i < n; i++ {
				v, ok := known(buf[i])
				if !ok {
					allKnown = false
					break
				}
				vals[i] = v
			}
			if allKnown && writes {
				v := isa.EvalALU(op, vals[0], vals[1], mi.Inst.Imm)
				mi.Inst = isa.Inst{Op: isa.OpLdi, Dst: dst, Imm: v}
				consts[dst] = v
			} else if writes {
				delete(consts, dst)
			}
		default:
			if writes {
				delete(consts, dst)
			}
		}
		out = append(out, mi)
	}
	return out
}

// deadCodeElim removes instructions whose results are never read before
// being overwritten. Microthread routines have a single observable output
// (Store_PCache), so liveness starts there. Loads in microthreads have no
// architectural side effects and may be removed when dead.
func deadCodeElim(insts []MicroInst) []MicroInst {
	live := map[isa.Reg]bool{}
	keep := make([]bool, len(insts))
	var buf [2]isa.Reg
	for i := len(insts) - 1; i >= 0; i-- {
		mi := insts[i]
		dst, writes := mi.Inst.Writes()
		if mi.Inst.Op == isa.OpStorePCache {
			keep[i] = true
		} else if writes && live[dst] {
			keep[i] = true
		} else {
			continue
		}
		if writes {
			delete(live, dst)
		}
		n := mi.Inst.ReadsInto(&buf)
		for j := 0; j < n; j++ {
			if buf[j] != isa.RZero {
				live[buf[j]] = true
			}
		}
	}
	out := insts[:0]
	for i, k := range keep {
		if k {
			out = append(out, insts[i])
		}
	}
	return out
}
