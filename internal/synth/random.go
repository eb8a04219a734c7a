// Random program generation for differential verification.
//
// The fixed kernels in this package reproduce the paper's benchmark
// behaviours; the generator here instead produces *arbitrary* well-formed
// programs — random control flow (diamonds, counted and data-exited
// loops, jump-table switches), random memory access patterns, and random
// call trees — as fuzzing input for the internal/oracle differential
// harness. Every generated program terminates structurally: all loops
// carry a counter failsafe, stores are confined to per-unit scratch
// arrays and the stack (so jump tables stay intact), and indirect jumps
// go through tables whose every entry is a patched code label.
package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dpbp/internal/isa"
	"dpbp/internal/program"
)

// RandSpec parameterises one random program. The same spec always yields
// the same program.
type RandSpec struct {
	// Seed drives all generation randomness.
	Seed int64
	// Units is the number of independent code units; the main loop calls
	// each included unit once per iteration.
	Units int
	// Omit lists unit indices to exclude — the shrinking knob. A unit's
	// instruction stream depends only on (Seed, its index), so omitting
	// one unit leaves the others' behaviour recognisable in the repro.
	Omit []int
}

// Omitting returns a copy of the spec with unit u additionally omitted.
func (s RandSpec) Omitting(u int) RandSpec {
	out := s
	out.Omit = append(append([]int(nil), s.Omit...), u)
	return out
}

// Omitted reports whether unit u is excluded.
func (s RandSpec) Omitted(u int) bool {
	for _, o := range s.Omit {
		if o == u {
			return true
		}
	}
	return false
}

// IncludedUnits counts the units the spec actually emits.
func (s RandSpec) IncludedUnits() int {
	n := 0
	for u := 0; u < s.Units; u++ {
		if !s.Omitted(u) {
			n++
		}
	}
	return n
}

// String renders the spec compactly for program names and repro logs.
func (s RandSpec) String() string {
	name := fmt.Sprintf("rand-s%d-u%d", s.Seed, s.Units)
	if len(s.Omit) > 0 {
		sorted := append([]int(nil), s.Omit...)
		sort.Ints(sorted)
		parts := make([]string, len(sorted))
		for i, o := range sorted {
			parts[i] = fmt.Sprint(o)
		}
		name += "-omit" + strings.Join(parts, ",")
	}
	return name
}

// Random builds a seeded random program with size units. It is the
// oracle's generator entry point; RandomProgram gives full control.
func Random(seed int64, size int) *program.Program {
	return RandomProgram(RandSpec{Seed: seed, Units: size})
}

// RandomProgram builds the program a spec describes.
func RandomProgram(spec RandSpec) *program.Program {
	if spec.Units <= 0 {
		spec.Units = 1
	}
	g := &rgen{
		spec: spec,
		b:    program.NewBuilder(spec.String()),
	}
	prog := g.build()
	prog.DataBase = DataBase
	prog.StackBase = StackBase
	if err := prog.Validate(); err != nil {
		panic(fmt.Sprintf("synth: random program %v invalid: %v", spec, err))
	}
	return prog
}

// Random-generator register convention. Units use a small fixed set so
// constructs compose without liveness analysis: value registers hold
// arbitrary data, temps are clobbered freely, loop counters are indexed
// by nesting depth, and the chase pointer only ever holds a valid node
// address (nothing else writes it).
const (
	randVRegBase  = kernelRegBase // v0..v3: r8..r11
	randNumVRegs  = 4             //
	randTmp       = isa.Reg(12)   // address/scratch temp
	randTmp2      = isa.Reg(13)   // second temp (switch dispatch)
	randLoopBase  = isa.Reg(16)   // loop counter at depth d: r16+d
	randMaxNest   = 3             //
	randChasePtr  = isa.Reg(20)   // pointer-chase cursor
	randScratchSz = 64            // per-unit writable words
)

// rgen carries whole-program generation state.
type rgen struct {
	spec    RandSpec
	b       *program.Builder
	data    []isa.Word
	fixups  []dataFixup
	nextLbl int
}

func (g *rgen) label(prefix string) string {
	g.nextLbl++
	return fmt.Sprintf("%s_%d", prefix, g.nextLbl)
}

func (g *rgen) allocData(n int, fill func(i int) isa.Word) isa.Addr {
	base := DataBase + isa.Addr(len(g.data))
	for i := 0; i < n; i++ {
		g.data = append(g.data, fill(i))
	}
	return base
}

// unitRNG returns the unit's private random stream. Seeding by (Seed,
// unit index) keeps a unit's generation independent of which other units
// the spec includes, which is what makes Omit-based shrinking meaningful.
func (g *rgen) unitRNG(unit int) *rand.Rand {
	return rand.New(rand.NewSource(g.spec.Seed*1_000_003 + int64(unit)*7919 + 1))
}

func (g *rgen) build() *program.Program {
	b := g.b

	b.Label("entry")
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: isa.RSP, Imm: isa.Word(StackBase)})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: isa.RGP, Imm: isa.Word(DataBase)})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: regIter, Imm: mainLoopIterations})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: regPhase, Imm: 0})

	var included []int
	for u := 0; u < g.spec.Units; u++ {
		if !g.spec.Omitted(u) {
			included = append(included, u)
		}
	}

	mainLoop := g.label("main")
	b.Label(mainLoop)
	unitLbls := make(map[int]string, len(included))
	for _, u := range included {
		unitLbls[u] = fmt.Sprintf("unit_%d", u)
		b.EmitBranch(isa.Inst{Op: isa.OpCall}, unitLbls[u])
	}
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: regPhase, Src1: regPhase, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: regIter, Src1: regIter, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: regIter}, mainLoop)

	halt := g.label("halt")
	b.Label(halt)
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, halt)

	for _, u := range included {
		b.Label(unitLbls[u])
		g.emitUnit(u)
	}

	prog := b.Finish()
	for _, f := range g.fixups {
		g.data[f.idx] = isa.Word(b.LabelAddr(f.label))
	}
	prog.Data = g.data
	return prog
}

// runit is the per-unit generation state.
type runit struct {
	g   *rgen
	rng *rand.Rand

	arrBase isa.Addr // read-only random words
	arrMask isa.Word
	scrBase isa.Addr // writable scratch
	scrMask isa.Word

	chaseBase isa.Addr // read-only [next,value] node ring; 0 = none
	helpers   []string // helper labels, bodies emitted after the unit

	depth int // construct recursion depth
	nest  int // loop nesting depth
}

func (g *rgen) emitUnit(idx int) {
	u := &runit{g: g, rng: g.unitRNG(idx)}
	b := g.b

	arrLen := 64 << u.rng.Intn(2) // 64 or 128, exact powers of two
	u.arrBase = g.allocData(arrLen, func(int) isa.Word { return isa.Word(u.rng.Uint64() >> 1) })
	u.arrMask = isa.Word(arrLen - 1)
	u.scrBase = g.allocData(randScratchSz, func(int) isa.Word { return 0 })
	u.scrMask = randScratchSz - 1

	if u.rng.Intn(3) == 0 {
		u.buildChaseRing()
	}
	for h := u.rng.Intn(3); h > 0; h-- {
		u.helpers = append(u.helpers, g.label("uhelp"))
	}

	// Seed the value registers from the phase and unit data so branch
	// conditions vary across iterations.
	for i := 0; i < randNumVRegs; i++ {
		v := randVRegBase + isa.Reg(i)
		switch u.rng.Intn(3) {
		case 0:
			b.Emit(isa.Inst{Op: isa.OpLdi, Dst: v, Imm: isa.Word(u.rng.Intn(1 << 12))})
		case 1:
			b.Emit(isa.Inst{Op: isa.OpMuli, Dst: v, Src1: regPhase, Imm: isa.Word(u.rng.Intn(29) + 1)})
		default:
			b.Emit(isa.Inst{Op: isa.OpAndi, Dst: randTmp, Src1: regPhase, Imm: u.arrMask})
			b.Emit(isa.Inst{Op: isa.OpLoad, Dst: v, Src1: randTmp, Imm: isa.Word(u.arrBase)})
		}
	}
	if u.chaseBase != 0 {
		b.Emit(isa.Inst{Op: isa.OpLdi, Dst: randChasePtr, Imm: isa.Word(u.chaseBase)})
	}

	u.emitBody(6 + u.rng.Intn(12))
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})

	for _, h := range u.helpers {
		u.emitHelper(h)
	}
}

// buildChaseRing lays out a random-permutation [next,value] node cycle in
// read-only data, exactly like the mcf-style chase kernel.
func (u *runit) buildChaseRing() {
	const nodes = 32
	perm := u.rng.Perm(nodes)
	inv := make([]int, nodes)
	for i, v := range perm {
		inv[v] = i
	}
	base := u.g.allocData(nodes*2, func(int) isa.Word { return 0 })
	for i := 0; i < nodes; i++ {
		next := perm[(inv[i]+1)%nodes]
		u.g.data[int(base-DataBase)+2*i] = isa.Word(base) + isa.Word(2*next)
		u.g.data[int(base-DataBase)+2*i+1] = isa.Word(u.rng.Uint64() >> 1)
	}
	u.chaseBase = base + isa.Addr(2*perm[0])
}

func (u *runit) vreg() isa.Reg { return randVRegBase + isa.Reg(u.rng.Intn(randNumVRegs)) }

// emitBody emits n random constructs at the current nesting level.
func (u *runit) emitBody(n int) {
	if u.depth >= 4 {
		n = 1 // deep recursion degenerates to straight-line code
	}
	for i := 0; i < n; i++ {
		u.emitConstruct()
	}
}

func (u *runit) emitConstruct() {
	b := u.g.b
	switch c := u.rng.Intn(12); {
	case c <= 3:
		u.emitALU()
	case c == 4:
		u.emitLoadArr()
	case c == 5:
		u.emitStoreLoadScratch()
	case c == 6:
		u.emitIfElse()
	case c == 7 && u.nest < randMaxNest:
		u.emitCountedLoop()
	case c == 8 && u.nest < randMaxNest:
		u.emitBreakLoop()
	case c == 9 && u.depth < 3:
		u.emitSwitch()
	case c == 10 && len(u.helpers) > 0:
		u.emitCall()
	case c == 11 && u.chaseBase != 0:
		// One chase step: v = node.value; ptr = node.next. The pointer
		// register is written by nothing else, so it always holds a
		// valid node address.
		b.Emit(isa.Inst{Op: isa.OpLoad, Dst: u.vreg(), Src1: randChasePtr, Imm: 1})
		b.Emit(isa.Inst{Op: isa.OpLoad, Dst: randChasePtr, Src1: randChasePtr})
	default:
		u.emitALU()
	}
}

// emitALU emits one random ALU instruction over the value registers.
func (u *runit) emitALU() {
	b := u.g.b
	dst, s1, s2 := u.vreg(), u.vreg(), u.vreg()
	regOps := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSeq}
	immOps := []isa.Op{isa.OpAddi, isa.OpMuli, isa.OpAndi, isa.OpOri,
		isa.OpXori, isa.OpShli, isa.OpShri, isa.OpSlti, isa.OpSeqi}
	if u.rng.Intn(2) == 0 {
		b.Emit(isa.Inst{Op: regOps[u.rng.Intn(len(regOps))], Dst: dst, Src1: s1, Src2: s2})
	} else {
		op := immOps[u.rng.Intn(len(immOps))]
		imm := isa.Word(u.rng.Intn(255) + 1)
		if op == isa.OpShli || op == isa.OpShri {
			imm = isa.Word(u.rng.Intn(7) + 1)
		}
		b.Emit(isa.Inst{Op: op, Dst: dst, Src1: s1, Imm: imm})
	}
}

// emitLoadArr loads a data-dependent element of the unit's read-only
// array into a value register.
func (u *runit) emitLoadArr() {
	b := u.g.b
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: randTmp, Src1: u.vreg(), Imm: u.arrMask})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: u.vreg(), Src1: randTmp, Imm: isa.Word(u.arrBase)})
}

// emitStoreLoadScratch stores a value register to the unit's scratch
// array at a data-dependent index, sometimes loading it (or a neighbour)
// back — the memory-dependence pattern the MCB watch machinery cares
// about.
func (u *runit) emitStoreLoadScratch() {
	b := u.g.b
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: randTmp, Src1: u.vreg(), Imm: u.scrMask})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: randTmp, Src2: u.vreg(), Imm: isa.Word(u.scrBase)})
	if u.rng.Intn(2) == 0 {
		b.Emit(isa.Inst{Op: isa.OpLoad, Dst: u.vreg(), Src1: randTmp, Imm: isa.Word(u.scrBase)})
	}
}

// emitIfElse emits a branch diamond (sometimes with an empty else arm)
// whose condition is a random comparison over value registers.
func (u *runit) emitIfElse() {
	b := u.g.b
	u.depth++
	defer func() { u.depth-- }()

	cond := u.emitCond()
	if u.rng.Intn(3) == 0 {
		// if-without-else: branch over the body.
		skip := u.g.label("rskip")
		b.EmitBranch(cond, skip)
		u.emitBody(1 + u.rng.Intn(3))
		b.Label(skip)
		return
	}
	elseL, join := u.g.label("relse"), u.g.label("rjoin")
	b.EmitBranch(cond, elseL)
	u.emitBody(1 + u.rng.Intn(3))
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, join)
	b.Label(elseL)
	u.emitBody(1 + u.rng.Intn(3))
	b.Label(join)
}

// emitCond returns a random conditional-branch instruction (target is
// filled in by EmitBranch).
func (u *runit) emitCond() isa.Inst {
	switch u.rng.Intn(6) {
	case 0:
		return isa.Inst{Op: isa.OpBeqz, Src1: u.vreg()}
	case 1:
		return isa.Inst{Op: isa.OpBnez, Src1: u.vreg()}
	case 2:
		return isa.Inst{Op: isa.OpBltz, Src1: u.vreg()}
	case 3:
		return isa.Inst{Op: isa.OpBgez, Src1: u.vreg()}
	case 4:
		return isa.Inst{Op: isa.OpBeq, Src1: u.vreg(), Src2: u.vreg()}
	default:
		return isa.Inst{Op: isa.OpBne, Src1: u.vreg(), Src2: u.vreg()}
	}
}

// emitCountedLoop emits a loop with a fixed trip count. The counter
// register is indexed by nesting depth, so inner bodies cannot clobber
// it.
func (u *runit) emitCountedLoop() {
	b := u.g.b
	rc := randLoopBase + isa.Reg(u.nest)
	u.nest++
	u.depth++
	defer func() { u.nest--; u.depth-- }()

	trip := 2 + u.rng.Intn(9)
	loop := u.g.label("rloop")
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: rc, Imm: isa.Word(trip)})
	b.Label(loop)
	u.emitBody(1 + u.rng.Intn(4))
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rc, Src1: rc, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: rc}, loop)
}

// emitBreakLoop emits a loop with a data-dependent early exit and a
// counter failsafe that bounds it structurally.
func (u *runit) emitBreakLoop() {
	b := u.g.b
	rc := randLoopBase + isa.Reg(u.nest)
	u.nest++
	u.depth++
	defer func() { u.nest--; u.depth-- }()

	trip := 4 + u.rng.Intn(9)
	loop, exit := u.g.label("rbrk"), u.g.label("rbrkx")
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: rc, Imm: isa.Word(trip)})
	b.Label(loop)
	u.emitBody(1 + u.rng.Intn(3))
	mask := isa.Word(1)<<uint(u.rng.Intn(3)+1) - 1
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: randTmp, Src1: u.vreg(), Imm: mask})
	b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: randTmp}, exit)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rc, Src1: rc, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: rc}, loop)
	b.Label(exit)
}

// emitSwitch emits a jump-table dispatch over 2 or 4 cases, the table
// living in read-only data and patched to code labels after Finish.
func (u *runit) emitSwitch() {
	b := u.g.b
	u.depth++
	defer func() { u.depth-- }()

	nCase := 2 << u.rng.Intn(2) // 2 or 4: index mask is exact
	caseLbls := make([]string, nCase)
	for i := range caseLbls {
		caseLbls[i] = u.g.label("rcase")
	}
	tbl := u.g.allocData(nCase, func(int) isa.Word { return 0 })
	for i := 0; i < nCase; i++ {
		u.g.fixups = append(u.g.fixups, dataFixup{idx: int(tbl-DataBase) + i, label: caseLbls[i]})
	}

	join := u.g.label("rswj")
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: randTmp, Src1: u.vreg(), Imm: isa.Word(nCase - 1)})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: randTmp2, Src1: randTmp, Imm: isa.Word(tbl)})
	b.Emit(isa.Inst{Op: isa.OpJmpInd, Src1: randTmp2})
	for _, lbl := range caseLbls {
		b.Label(lbl)
		u.emitBody(1 + u.rng.Intn(2))
		b.EmitBranch(isa.Inst{Op: isa.OpJmp}, join)
	}
	b.Label(join)
}

// emitCall saves the return address on the stack, calls a random unit
// helper with a masked array index as argument, and restores.
func (u *runit) emitCall() {
	b := u.g.b
	h := u.helpers[u.rng.Intn(len(u.helpers))]
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: isa.RSP, Src1: isa.RSP, Imm: -1})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: isa.RSP, Src2: isa.RRA})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: helperRegBase, Src1: u.vreg(), Imm: u.arrMask})
	b.EmitBranch(isa.Inst{Op: isa.OpCall}, h)
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: isa.RRA, Src1: isa.RSP})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: isa.RSP, Src1: isa.RSP, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpMov, Dst: u.vreg(), Src1: helperRegBase + 1})
}

// emitHelper emits one leaf helper: load from the unit array at the
// index in h0, mix, result in h1. Helpers never call further, so they
// need no stack traffic of their own.
func (u *runit) emitHelper(label string) {
	b := u.g.b
	h0, h1, h2 := helperRegBase, helperRegBase+1, helperRegBase+2
	b.Label(label)
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: h1, Src1: h0, Imm: isa.Word(u.arrBase)})
	b.Emit(isa.Inst{Op: isa.OpShri, Dst: h2, Src1: h1, Imm: isa.Word(u.rng.Intn(13) + 1)})
	mix := []isa.Op{isa.OpXor, isa.OpAdd, isa.OpSub}[u.rng.Intn(3)]
	b.Emit(isa.Inst{Op: mix, Dst: h1, Src1: h1, Src2: h2})
	if u.rng.Intn(2) == 0 {
		// Second, data-dependent load through the mixed value.
		b.Emit(isa.Inst{Op: isa.OpAndi, Dst: h2, Src1: h1, Imm: u.arrMask})
		b.Emit(isa.Inst{Op: isa.OpLoad, Dst: h2, Src1: h2, Imm: isa.Word(u.arrBase)})
		b.Emit(isa.Inst{Op: isa.OpAdd, Dst: h1, Src1: h1, Src2: h2})
	}
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})
}
