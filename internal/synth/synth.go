// Package synth generates the synthetic benchmark programs that stand in
// for the paper's SPECint95/SPECint2000 binaries.
//
// The paper's mechanism consumes only the dynamic instruction stream:
// control flow, register/memory dataflow, values, and addresses. Each
// generated program is therefore built from kernels that reproduce the
// behaviours the paper's evaluation depends on:
//
//   - data-dependent branches whose outcomes are pseudo-random to a history
//     predictor but exactly pre-computable by a backward slice (the bread
//     and butter of microthread prediction);
//   - path-correlated branches that are easy on some control-flow paths and
//     hard on others (the motivation for per-path classification);
//   - counted loops and biased branches that history predictors handle well
//     (the "easy" population);
//   - switch-style indirect jumps through in-memory jump tables;
//   - pointer chasing over linked lists (mcf-like memory behaviour);
//   - call trees exercising the return-address stack;
//   - bytecode-interpreter dispatch loops whose indirect targets are
//     data-dependent (the perl/li behaviour);
//   - stride-predictable induction chains that give the pruning optimiser
//     something to prune.
//
// Twenty profiles named after the paper's benchmarks mix these kernels with
// different weights, data biases, footprints, and static code sizes, so the
// suite spans the qualitative regimes in the paper (branchy gcc/go, loopy
// ijpeg, pointer-heavy mcf, well-behaved eon, tiny-coverage perlbmk, ...).
// Generation is deterministic per profile seed.
package synth

import (
	"fmt"
	"math/rand"
	"sort"

	"dpbp/internal/isa"
	"dpbp/internal/program"
)

// Memory layout constants shared with the emulator.
const (
	// DataBase is the lowest data address (in words).
	DataBase isa.Addr = 1 << 20
	// StackBase is the initial stack pointer; the stack grows down.
	StackBase isa.Addr = 1 << 19
)

// mainLoopIterations is every generated program's main-loop trip count:
// effectively unbounded, because runs stop at an instruction budget.
const mainLoopIterations = 1 << 20

// Registers reserved by the generator's calling convention.
const (
	regIter  = isa.Reg(4) // main-loop iteration counter
	regPhase = isa.Reg(5) // main-loop phase (outer iteration index)
	// Kernel-local registers are allocated from kernelRegBase up;
	// helper functions use helperRegBase up so kernels need not save.
	kernelRegBase = isa.Reg(8)
	helperRegBase = isa.Reg(40)
)

// Profile parameterises one synthetic benchmark.
type Profile struct {
	Name string
	Seed int64

	// Kernels is the number of kernel functions in the program; the main
	// loop calls each once per iteration. More kernels means more static
	// branches and more unique paths.
	Kernels int

	// Iterations is the default number of main-loop iterations; runs are
	// usually bounded by a dynamic instruction budget instead.
	Iterations int

	// Bias is the probability that a generated data bit is 1. 0.5 makes
	// data-dependent branches maximally hard; values near 0 or 1 make
	// them predictable.
	Bias float64

	// Footprint is the total data-array budget in words; larger
	// footprints stress the caches.
	Footprint int

	// Mix gives relative weights for kernel kinds, indexed by kind.
	Mix [NumKernelKinds]int

	// LoopLen is the typical inner-loop trip count (randomised ±50%).
	LoopLen int

	// Pad is the number of filler ALU instructions inserted between
	// interesting instructions, controlling scope sizes.
	Pad int
}

// KernelKind identifies one of the generator's kernel families; Profile.Mix
// weights them.
type KernelKind int

// Kernel kinds, in Profile.Mix index order.
const (
	KindScan     KernelKind = iota // data-dependent branch scan
	KindPathMix                    // path-correlated difficulty
	KindLoopNest                   // counted nests, stride access (easy)
	KindSwitch                     // indirect jumps via jump table
	KindChase                      // pointer chasing
	KindCallTree                   // call/return with value-dependent branch
	KindInterp                     // bytecode-interpreter dispatch loop
	NumKernelKinds
)

// Mix builds a kernel-mix weight vector in declaration order.
func Mix(scan, pathMix, loopNest, switches, chase, callTree, interp int) [NumKernelKinds]int {
	return [NumKernelKinds]int{scan, pathMix, loopNest, switches, chase, callTree, interp}
}

// Profiles returns the twenty benchmark profiles, in the paper's order.
// The returned slice is freshly allocated; callers may modify it.
func Profiles() []Profile {
	ps := []Profile{
		// SPECint95.
		{Name: "comp", Seed: 9501, Kernels: 6, Bias: 0.50, Footprint: 6 << 10, Mix: Mix(4, 1, 2, 0, 0, 1, 0), LoopLen: 24, Pad: 2},
		{Name: "gcc", Seed: 9502, Kernels: 48, Bias: 0.58, Footprint: 48 << 10, Mix: Mix(3, 3, 2, 2, 1, 2, 0), LoopLen: 10, Pad: 1},
		{Name: "go", Seed: 9503, Kernels: 40, Bias: 0.52, Footprint: 32 << 10, Mix: Mix(4, 3, 1, 1, 1, 2, 0), LoopLen: 12, Pad: 2},
		{Name: "ijpeg", Seed: 9504, Kernels: 10, Bias: 0.72, Footprint: 24 << 10, Mix: Mix(2, 1, 5, 1, 0, 1, 0), LoopLen: 32, Pad: 2},
		{Name: "li", Seed: 9505, Kernels: 12, Bias: 0.62, Footprint: 8 << 10, Mix: Mix(2, 2, 1, 1, 2, 3, 2), LoopLen: 8, Pad: 1},
		{Name: "m88ksim", Seed: 9506, Kernels: 14, Bias: 0.82, Footprint: 12 << 10, Mix: Mix(1, 1, 4, 2, 0, 2, 1), LoopLen: 16, Pad: 2},
		{Name: "perl", Seed: 9507, Kernels: 16, Bias: 0.78, Footprint: 10 << 10, Mix: Mix(1, 2, 2, 3, 1, 2, 3), LoopLen: 9, Pad: 1},
		{Name: "vortex", Seed: 9508, Kernels: 24, Bias: 0.85, Footprint: 40 << 10, Mix: Mix(1, 1, 3, 1, 1, 4, 0), LoopLen: 12, Pad: 2},
		// SPECint2000.
		{Name: "bzip2_2k", Seed: 2001, Kernels: 8, Bias: 0.48, Footprint: 96 << 10, Mix: Mix(5, 1, 3, 0, 0, 0, 0), LoopLen: 48, Pad: 3},
		{Name: "crafty_2k", Seed: 2002, Kernels: 28, Bias: 0.55, Footprint: 24 << 10, Mix: Mix(3, 3, 2, 1, 0, 2, 0), LoopLen: 14, Pad: 2},
		{Name: "eon_2k", Seed: 2003, Kernels: 14, Bias: 0.92, Footprint: 10 << 10, Mix: Mix(1, 0, 5, 1, 0, 2, 0), LoopLen: 20, Pad: 2},
		{Name: "gap_2k", Seed: 2004, Kernels: 18, Bias: 0.80, Footprint: 28 << 10, Mix: Mix(2, 1, 3, 2, 1, 2, 1), LoopLen: 12, Pad: 1},
		{Name: "gcc_2k", Seed: 2005, Kernels: 56, Bias: 0.57, Footprint: 56 << 10, Mix: Mix(3, 3, 2, 2, 1, 2, 0), LoopLen: 10, Pad: 1},
		{Name: "gzip_2k", Seed: 2006, Kernels: 8, Bias: 0.52, Footprint: 64 << 10, Mix: Mix(5, 1, 3, 0, 0, 0, 0), LoopLen: 40, Pad: 3},
		{Name: "mcf_2k", Seed: 2007, Kernels: 8, Bias: 0.55, Footprint: 128 << 10, Mix: Mix(2, 1, 1, 0, 5, 1, 0), LoopLen: 24, Pad: 1},
		{Name: "parser_2k", Seed: 2008, Kernels: 20, Bias: 0.62, Footprint: 20 << 10, Mix: Mix(3, 2, 1, 1, 2, 2, 0), LoopLen: 10, Pad: 1},
		{Name: "perlbmk_2k", Seed: 2009, Kernels: 16, Bias: 0.88, Footprint: 12 << 10, Mix: Mix(1, 1, 4, 2, 0, 3, 2), LoopLen: 16, Pad: 2},
		{Name: "twolf_2k", Seed: 2010, Kernels: 16, Bias: 0.60, Footprint: 32 << 10, Mix: Mix(3, 2, 2, 1, 1, 1, 0), LoopLen: 18, Pad: 2},
		{Name: "vortex_2k", Seed: 2011, Kernels: 26, Bias: 0.86, Footprint: 48 << 10, Mix: Mix(1, 1, 3, 1, 1, 4, 0), LoopLen: 12, Pad: 2},
		{Name: "vpr_2k", Seed: 2012, Kernels: 12, Bias: 0.50, Footprint: 80 << 10, Mix: Mix(4, 2, 3, 0, 1, 0, 0), LoopLen: 36, Pad: 4},
	}
	for i := range ps {
		ps[i].Iterations = mainLoopIterations
	}
	return ps
}

// ProfileByName returns the named profile, or an error listing valid names.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	names := Names()
	return Profile{}, fmt.Errorf("synth: unknown benchmark %q (have %v)", name, names)
}

// Names returns the benchmark names in the paper's order.
func Names() []string {
	ps := Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// gen carries generation state.
type gen struct {
	p       Profile
	rng     *rand.Rand
	b       *program.Builder
	data    []isa.Word
	fixups  []dataFixup // jump-table entries patched to label addresses
	nextLbl int
}

type dataFixup struct {
	idx   int
	label string
}

// Generate builds the program for a profile. The same profile always yields
// the same program.
func Generate(p Profile) *program.Program {
	g := &gen{
		p:   p,
		rng: rand.New(rand.NewSource(p.Seed)),
		b:   program.NewBuilder(p.Name),
	}
	prog := g.build()
	prog.DataBase = DataBase
	prog.Data = g.data
	prog.StackBase = StackBase
	if err := prog.Validate(); err != nil {
		panic(fmt.Sprintf("synth: generated invalid program: %v", err))
	}
	return prog
}

// label returns a fresh unique label with a descriptive prefix.
func (g *gen) label(prefix string) string {
	g.nextLbl++
	return fmt.Sprintf("%s_%d", prefix, g.nextLbl)
}

// allocData reserves n words of data memory filled by fill and returns the
// base address.
func (g *gen) allocData(n int, fill func(i int) isa.Word) isa.Addr {
	base := DataBase + isa.Addr(len(g.data))
	for i := 0; i < n; i++ {
		g.data = append(g.data, fill(i))
	}
	return base
}

// randomWord returns a word whose low bits are independently 1 with
// probability Bias; higher bits carry extra entropy for switch kernels.
func (g *gen) randomWord() isa.Word {
	var w isa.Word
	for bit := 0; bit < 16; bit++ {
		if g.rng.Float64() < g.p.Bias {
			w |= 1 << uint(bit)
		}
	}
	w |= isa.Word(g.rng.Intn(1<<16)) << 16
	return w
}

// pad emits 0..n filler ALU instructions on scratch registers, lengthening
// block scopes without touching live state.
func (g *gen) pad(n int) {
	scratch := isa.Reg(36)
	for i := 0; i < n; i++ {
		switch g.rng.Intn(3) {
		case 0:
			g.b.Emit(isa.Inst{Op: isa.OpAddi, Dst: scratch, Src1: scratch, Imm: isa.Word(g.rng.Intn(7) + 1)})
		case 1:
			g.b.Emit(isa.Inst{Op: isa.OpXori, Dst: scratch + 1, Src1: scratch, Imm: isa.Word(g.rng.Intn(255))})
		default:
			g.b.Emit(isa.Inst{Op: isa.OpShli, Dst: scratch + 2, Src1: scratch + 1, Imm: isa.Word(g.rng.Intn(3))})
		}
	}
}

// loopLen draws an inner-loop trip count around the profile's LoopLen.
func (g *gen) loopLen() int {
	n := g.p.LoopLen/2 + g.rng.Intn(g.p.LoopLen+1)
	if n < 2 {
		n = 2
	}
	return n
}

// build assembles the whole program.
func (g *gen) build() *program.Program {
	b := g.b

	// Choose kernel kinds by weighted mix.
	kinds := g.chooseKinds()

	// Prologue.
	b.Label("entry")
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: isa.RSP, Imm: isa.Word(StackBase)})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: isa.RGP, Imm: isa.Word(DataBase)})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: regIter, Imm: isa.Word(g.p.Iterations)})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: regPhase, Imm: 0})

	mainLoop := g.label("main")
	b.Label(mainLoop)
	kernelLabels := make([]string, len(kinds))
	for i := range kinds {
		kernelLabels[i] = g.label("kern")
		b.EmitBranch(isa.Inst{Op: isa.OpCall}, kernelLabels[i])
	}
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: regPhase, Src1: regPhase, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: regIter, Src1: regIter, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: regIter}, mainLoop)

	// Halt: jump-to-self, recognised by the emulator.
	halt := g.label("halt")
	b.Label(halt)
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, halt)

	// Kernel bodies.
	for i, kind := range kinds {
		b.Label(kernelLabels[i])
		g.emitKernel(kind)
	}

	prog := b.Finish()
	// Patch jump tables with resolved code addresses.
	for _, f := range g.fixups {
		g.data[f.idx] = isa.Word(b.LabelAddr(f.label))
	}
	prog.Data = g.data
	return prog
}

// chooseKinds deals out Kernels kernel kinds according to the mix weights,
// deterministically, round-robin over a weighted deck.
func (g *gen) chooseKinds() []KernelKind {
	var deck []KernelKind
	for k := KernelKind(0); k < NumKernelKinds; k++ {
		for i := 0; i < g.p.Mix[k]; i++ {
			deck = append(deck, k)
		}
	}
	if len(deck) == 0 {
		deck = []KernelKind{KindScan}
	}
	g.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	kinds := make([]KernelKind, g.p.Kernels)
	for i := range kinds {
		kinds[i] = deck[i%len(deck)]
	}
	// Sort so that identical kinds are spread, then reshuffle blocks to
	// keep call order stable but varied.
	sort.SliceStable(kinds, func(i, j int) bool { return i%3 < j%3 })
	return kinds
}

// footPerKernel splits the data footprint over kernels.
func (g *gen) footPerKernel() int {
	n := g.p.Footprint / g.p.Kernels
	if n < 64 {
		n = 64
	}
	return n
}

func (g *gen) emitKernel(kind KernelKind) {
	switch kind {
	case KindScan:
		g.emitScan()
	case KindPathMix:
		g.emitPathMix()
	case KindLoopNest:
		g.emitLoopNest()
	case KindSwitch:
		g.emitSwitch()
	case KindChase:
		g.emitChase()
	case KindCallTree:
		g.emitCallTree()
	case KindInterp:
		g.emitInterp()
	}
}

// emitScan builds the data-dependent-branch kernel:
//
//	for i in 0..L: v = a[(phase*stride + i) % len]
//	    if v & m1 { work } ; if v & m2 { work }
//
// Branch outcomes are pseudo-random bits of memory: a history predictor
// sees noise, a backward slice (load; and; bnez) pre-computes them exactly.
func (g *gen) emitScan() {
	b, r := g.b, kernelRegBase
	alen := g.footPerKernel()
	base := g.allocData(alen, func(int) isa.Word { return g.randomWord() })
	trip := g.loopLen()
	stride := g.rng.Intn(13)*2 + 3
	nBranch := 1 + g.rng.Intn(3)

	ri, rv, rt, racc, ridx := r, r+1, r+2, r+3, r+4

	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ri, Imm: isa.Word(trip)})
	// idx = phase*stride % alen
	b.Emit(isa.Inst{Op: isa.OpMuli, Dst: ridx, Src1: regPhase, Imm: isa.Word(stride)})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: ridx, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	loop := g.label("scan")
	b.Label(loop)
	g.pad(g.p.Pad)
	// v = mem[base + idx]
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rt, Src1: ridx, Imm: isa.Word(base)})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rv, Src1: rt})
	for j := 0; j < nBranch; j++ {
		mask := isa.Word(1) << uint(g.rng.Intn(12))
		skip := g.label("scanskip")
		b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: rv, Imm: mask})
		g.pad(g.p.Pad / 2)
		b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: rt}, skip)
		// Taken work: accumulate.
		b.Emit(isa.Inst{Op: isa.OpAdd, Dst: racc, Src1: racc, Src2: rv})
		g.pad(g.p.Pad)
		b.Label(skip)
	}
	// Data-dependent index advance: idx = (idx + (v&7) + 1) & mask.
	// The walk is aperiodic, so the branch outcomes never settle into a
	// pattern a history predictor could memorise — but the whole chain
	// is register dataflow a backward slice captures exactly.
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: rv, Imm: 7})
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: ridx, Src1: ridx, Src2: rt})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ridx, Src1: ridx, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: ridx, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ri, Src1: ri, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: ri}, loop)
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})
}

// emitPathMix builds the per-path-difficulty kernel. An early branch B1 on
// a data bit splits control; one side forces w=1 (making the join branch B2
// always taken on that path), the other side loads a second random bit into
// w (making B2 data-random on that path). B2 is therefore easy on path one
// and difficult on path two — exactly the situation difficult-path
// classification exploits and per-static-branch classification cannot.
func (g *gen) emitPathMix() {
	b, r := g.b, kernelRegBase
	alen := g.footPerKernel()
	base := g.allocData(alen, func(int) isa.Word { return g.randomWord() })
	trip := g.loopLen()

	ri, rv, rw, rt, racc, ridx := r, r+1, r+2, r+3, r+4, r+5

	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ri, Imm: isa.Word(trip)})
	b.Emit(isa.Inst{Op: isa.OpMuli, Dst: ridx, Src1: regPhase, Imm: 7})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: ridx, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	loop := g.label("pmix")
	b.Label(loop)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rt, Src1: ridx, Imm: isa.Word(base)})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rv, Src1: rt})
	g.pad(g.p.Pad)

	elseLbl, join := g.label("pmelse"), g.label("pmjoin")
	// B1: data-dependent split.
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: rv, Imm: 1})
	b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: rt}, elseLbl)
	// Then-side: w = 1 (B2 will always be taken on this path).
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: rw, Imm: 1})
	g.pad(g.p.Pad)
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, join)
	b.Label(elseLbl)
	// Else-side: w = second random bit of v (B2 data-random here).
	b.Emit(isa.Inst{Op: isa.OpShri, Dst: rw, Src1: rv, Imm: 5})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rw, Src1: rw, Imm: 1})
	g.pad(g.p.Pad)
	b.Label(join)
	skip := g.label("pmskip")
	// B2: bnez w — easy on the then-path, hard on the else-path.
	g.pad(g.p.Pad / 2)
	b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: rw}, skip)
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: racc, Src1: racc, Src2: rv})
	g.pad(g.p.Pad)
	b.Label(skip)

	// Data-dependent aperiodic index walk, as in the scan kernel.
	b.Emit(isa.Inst{Op: isa.OpShri, Dst: rt, Src1: rv, Imm: 2})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: rt, Imm: 3})
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: ridx, Src1: ridx, Src2: rt})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ridx, Src1: ridx, Imm: 3})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: ridx, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ri, Src1: ri, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: ri}, loop)
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})
}

// emitLoopNest builds a two-deep counted nest with stride accesses and one
// strongly biased branch. Everything here is easy for the baseline
// predictor; it populates the easy-path mass and gives the value/address
// predictors stride-predictable inputs.
func (g *gen) emitLoopNest() {
	b, r := g.b, kernelRegBase
	alen := g.footPerKernel()
	base := g.allocData(alen, func(i int) isa.Word { return isa.Word(i * 3) })
	outer := g.loopLen() / 2
	if outer < 2 {
		outer = 2
	}
	inner := g.loopLen()

	ro, ri, rv, rt, racc, ridx := r, r+1, r+2, r+3, r+4, r+5

	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ro, Imm: isa.Word(outer)})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ridx, Imm: 0})
	oloop := g.label("nestO")
	b.Label(oloop)
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ri, Imm: isa.Word(inner)})
	iloop := g.label("nestI")
	b.Label(iloop)
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rt, Src1: rt, Imm: isa.Word(base)})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rv, Src1: rt})
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: racc, Src1: racc, Src2: rv})
	g.pad(g.p.Pad)
	// Biased branch: taken unless racc happens to be divisible by 64.
	skip := g.label("nestskip")
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: racc, Imm: 63})
	b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: rt}, skip)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: racc, Src1: racc, Imm: 1})
	b.Label(skip)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ridx, Src1: ridx, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ri, Src1: ri, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: ri}, iloop)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ro, Src1: ro, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: ro}, oloop)
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})
}

// emitSwitch builds a loop whose body dispatches through an in-memory jump
// table indexed by data, exercising indirect-branch prediction. The
// terminating indirect jump is exactly pre-computable by a slice.
func (g *gen) emitSwitch() {
	b, r := g.b, kernelRegBase
	alen := g.footPerKernel()
	base := g.allocData(alen, func(int) isa.Word { return g.randomWord() })
	const nCase = 4
	// Jump table: nCase code addresses, patched after Finish.
	caseLbls := make([]string, nCase)
	for i := range caseLbls {
		caseLbls[i] = g.label("case")
	}
	tbl := g.allocData(nCase, func(int) isa.Word { return 0 })
	for i := 0; i < nCase; i++ {
		g.fixups = append(g.fixups, dataFixup{idx: int(tbl-DataBase) + i, label: caseLbls[i]})
	}
	trip := g.loopLen()

	ri, rv, rt, racc, ridx := r, r+1, r+2, r+3, r+4

	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ri, Imm: isa.Word(trip)})
	b.Emit(isa.Inst{Op: isa.OpMuli, Dst: ridx, Src1: regPhase, Imm: 11})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: ridx, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	loop := g.label("switch")
	b.Label(loop)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rt, Src1: ridx, Imm: isa.Word(base)})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rv, Src1: rt})
	g.pad(g.p.Pad)
	// t = table[v & (nCase-1)]
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: rv, Imm: nCase - 1})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rt, Src1: rt, Imm: isa.Word(tbl)})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rt, Src1: rt})
	b.Emit(isa.Inst{Op: isa.OpJmpInd, Src1: rt})
	done := g.label("swdone")
	for i, lbl := range caseLbls {
		b.Label(lbl)
		b.Emit(isa.Inst{Op: isa.OpAddi, Dst: racc, Src1: racc, Imm: isa.Word(i*5 + 1)})
		g.pad(g.p.Pad)
		b.EmitBranch(isa.Inst{Op: isa.OpJmp}, done)
	}
	b.Label(done)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ridx, Src1: ridx, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: ridx, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ri, Src1: ri, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: ri}, loop)
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})
}

// emitChase builds a pointer-chasing kernel over a pre-linked random-order
// list embedded in data memory. Node layout: [next, value]. The loop branch
// tests the loaded node value (data-dependent), and the chased loads stress
// the memory system like mcf.
func (g *gen) emitChase() {
	b, r := g.b, kernelRegBase
	nodes := g.footPerKernel() / 2
	if nodes < 16 {
		nodes = 16
	}
	// Build a random permutation cycle.
	perm := g.rng.Perm(nodes)
	inv := make([]int, nodes) // inv[v] = position of v in perm
	for i, v := range perm {
		inv[v] = i
	}
	base := g.allocData(nodes*2, func(int) isa.Word { return 0 })
	for i := 0; i < nodes; i++ {
		next := perm[(inv[i]+1)%nodes]
		g.data[int(base-DataBase)+2*i] = isa.Word(base) + isa.Word(2*next)
		g.data[int(base-DataBase)+2*i+1] = g.randomWord()
	}
	trip := g.loopLen() * 2

	ri, rp, rv, rt, racc := r, r+1, r+2, r+3, r+4

	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ri, Imm: isa.Word(trip)})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: rp, Imm: isa.Word(base) + isa.Word(2*perm[0])})
	loop := g.label("chase")
	b.Label(loop)
	// v = node.value; p = node.next
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rv, Src1: rp, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rp, Src1: rp})
	g.pad(g.p.Pad)
	skip := g.label("chskip")
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: rv, Imm: 1})
	b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: rt}, skip)
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: racc, Src1: racc, Src2: rv})
	b.Label(skip)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ri, Src1: ri, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: ri}, loop)
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})
}

// emitCallTree builds a kernel that calls a helper in a loop; the helper
// computes a value from data and the caller branches on the result. The
// helper's ret exercises the return-address stack; the caller's branch is
// data-dependent through a call boundary.
func (g *gen) emitCallTree() {
	b, r := g.b, kernelRegBase
	alen := g.footPerKernel()
	base := g.allocData(alen, func(int) isa.Word { return g.randomWord() })
	trip := g.loopLen()
	helper := g.label("helper")

	ri, rv, rt, racc, ridx := r, r+1, r+2, r+3, r+4

	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ri, Imm: isa.Word(trip)})
	b.Emit(isa.Inst{Op: isa.OpMuli, Dst: ridx, Src1: regPhase, Imm: 5})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: ridx, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	loop := g.label("ctree")
	b.Label(loop)
	// Save RRA, call helper, restore.
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: isa.RSP, Src1: isa.RSP, Imm: -1})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: isa.RSP, Src2: isa.RRA})
	// Pass idx+base in a helper-visible register.
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: helperRegBase, Src1: ridx, Imm: isa.Word(base)})
	b.EmitBranch(isa.Inst{Op: isa.OpCall}, helper)
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: isa.RRA, Src1: isa.RSP})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: isa.RSP, Src1: isa.RSP, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpMov, Dst: rv, Src1: helperRegBase + 1})
	g.pad(g.p.Pad)
	skip := g.label("ctskip")
	// Branch on helper result bit: hard for history, sliceable across
	// the call.
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rt, Src1: rv, Imm: 1})
	b.EmitBranch(isa.Inst{Op: isa.OpBeqz, Src1: rt}, skip)
	b.Emit(isa.Inst{Op: isa.OpAdd, Dst: racc, Src1: racc, Src2: rv})
	g.pad(g.p.Pad)
	b.Label(skip)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ridx, Src1: ridx, Imm: 2})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: ridx, Src1: ridx, Imm: isa.Word(pow2Below(alen) - 1)})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ri, Src1: ri, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: ri}, loop)
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})

	// Helper: h1 = mem[h0] rotated/mixed; returns in h1.
	h0, h1, h2 := helperRegBase, helperRegBase+1, helperRegBase+2
	b.Label(helper)
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: h1, Src1: h0})
	b.Emit(isa.Inst{Op: isa.OpShri, Dst: h2, Src1: h1, Imm: 3})
	b.Emit(isa.Inst{Op: isa.OpXor, Dst: h1, Src1: h1, Src2: h2})
	g.pad(g.p.Pad / 2)
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})
}

// emitInterp builds a bytecode-interpreter dispatch loop, the indirect-
// branch-heavy behaviour of the interpreter benchmarks (perl, li): a
// virtual program counter walks a random bytecode array; each step loads
// an opcode and an operand, dispatches through a jump table, and executes
// one of eight handlers. With a bytecode array far longer than a target
// cache's effective history, the dispatch target looks random to the
// hardware — but the microthread slice (load opcode, load table entry)
// pre-computes it exactly, the paper's indirect-terminating-branch case.
func (g *gen) emitInterp() {
	b, r := g.b, kernelRegBase
	const nOp = 8
	codeLen := pow2Below(g.footPerKernel() / 2)
	if codeLen < 256 {
		codeLen = 256
	}
	code := g.allocData(codeLen, func(int) isa.Word { return isa.Word(g.rng.Intn(nOp)) })
	opnd := g.allocData(codeLen, func(int) isa.Word { return g.randomWord() })
	caseLbls := make([]string, nOp)
	for i := range caseLbls {
		caseLbls[i] = g.label("handler")
	}
	tbl := g.allocData(nOp, func(int) isa.Word { return 0 })
	for i := 0; i < nOp; i++ {
		g.fixups = append(g.fixups, dataFixup{idx: int(tbl-DataBase) + i, label: caseLbls[i]})
	}
	trip := g.loopLen() * 2

	ri, rvp, rop, rod, rt, racc := r, r+1, r+2, r+3, r+4, r+5

	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: ri, Imm: isa.Word(trip)})
	b.Emit(isa.Inst{Op: isa.OpMuli, Dst: rvp, Src1: regPhase, Imm: 17})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rvp, Src1: rvp, Imm: isa.Word(codeLen - 1)})
	loop := g.label("interp")
	b.Label(loop)
	// Fetch opcode and operand at the virtual PC.
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rop, Src1: rvp, Imm: isa.Word(code)})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rod, Src1: rvp, Imm: isa.Word(opnd)})
	g.pad(g.p.Pad)
	// Dispatch: t = table[op]; jmpind t.
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: rt, Src1: rop, Imm: isa.Word(tbl)})
	b.Emit(isa.Inst{Op: isa.OpJmpInd, Src1: rt})
	join := g.label("ijoin")
	for i, lbl := range caseLbls {
		b.Label(lbl)
		switch i % 4 {
		case 0:
			b.Emit(isa.Inst{Op: isa.OpAdd, Dst: racc, Src1: racc, Src2: rod})
		case 1:
			b.Emit(isa.Inst{Op: isa.OpXor, Dst: racc, Src1: racc, Src2: rod})
		case 2:
			b.Emit(isa.Inst{Op: isa.OpSub, Dst: racc, Src1: racc, Src2: rod})
		default:
			b.Emit(isa.Inst{Op: isa.OpShri, Dst: racc, Src1: racc, Imm: 1})
			b.Emit(isa.Inst{Op: isa.OpAdd, Dst: racc, Src1: racc, Src2: rod})
		}
		if i >= nOp/2 {
			// Wide instructions advance the virtual PC one extra.
			b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rvp, Src1: rvp, Imm: 1})
		}
		g.pad(g.p.Pad / 2)
		b.EmitBranch(isa.Inst{Op: isa.OpJmp}, join)
	}
	b.Label(join)
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: rvp, Src1: rvp, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: rvp, Src1: rvp, Imm: isa.Word(codeLen - 1)})
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: ri, Src1: ri, Imm: -1})
	b.EmitBranch(isa.Inst{Op: isa.OpBnez, Src1: ri}, loop)
	b.Emit(isa.Inst{Op: isa.OpRet, Src1: isa.RRA})
}

// pow2Below returns the largest power of two <= n (at least 1). Index masks
// use it so address arithmetic stays branch-free.
func pow2Below(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}
