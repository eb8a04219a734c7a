package uthread

import (
	"testing"

	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/path"
)

// rec builds a PRB entry from an executed instruction description.
type rec struct {
	pc    isa.Addr
	inst  isa.Inst
	ea    isa.Addr
	taken bool
	vconf bool
	aconf bool
}

// fillPRB pushes recs with sequence numbers 0..len-1 and returns the PRB
// and the seq of the last entry.
func fillPRB(recs []rec) (*PRB, uint64) {
	p := NewPRB(512)
	for i, r := range recs {
		p.Push(&emu.Record{
			Seq:   uint64(i),
			PC:    r.pc,
			Inst:  r.inst,
			EA:    r.ea,
			Taken: r.taken,
		}, r.vconf, r.aconf)
	}
	return p, uint64(len(recs) - 1)
}

// env returns a deterministic execution environment: register r holds
// 100+r, memory word a holds 1000+a, predictors return fixed values.
func testEnv() *Env {
	return &Env{
		ReadReg: func(r isa.Reg) isa.Word { return isa.Word(100 + int(r)) },
		LoadMem: func(a isa.Addr) isa.Word { return isa.Word(1000 + int(a)) },
		PredictValue: func(pc isa.Addr, ahead int) (isa.Word, bool) {
			return isa.Word(5000 + int(pc)*10 + ahead), true
		},
		PredictAddr: func(pc isa.Addr, ahead int) (isa.Word, bool) {
			return isa.Word(7000 + int(pc)*10 + ahead), true
		},
	}
}

// The canonical slice: load a value, mask a bit, branch on it.
//
//	seq 0 pc 10: addi r5, r6, #4     (address computation)
//	seq 1 pc 11: xori r9, r9, #1     (unrelated)
//	seq 2 pc 12: load r4, 0(r5)      ea=500
//	seq 3 pc 13: andi r7, r4, #2
//	seq 4 pc 14: beqz r7 @99         (terminating)
func scanRecs() []rec {
	return []rec{
		{pc: 10, inst: isa.Inst{Op: isa.OpAddi, Dst: 5, Src1: 6, Imm: 4}},
		{pc: 11, inst: isa.Inst{Op: isa.OpXori, Dst: 9, Src1: 9, Imm: 1}},
		{pc: 12, inst: isa.Inst{Op: isa.OpLoad, Dst: 4, Src1: 5}, ea: 500},
		{pc: 13, inst: isa.Inst{Op: isa.OpAndi, Dst: 7, Src1: 4, Imm: 2}},
		{pc: 14, inst: isa.Inst{Op: isa.OpBeqz, Src1: 7, Target: 99}},
	}
}

func TestBuildBasicSlice(t *testing.T) {
	prb, brSeq := fillPRB(scanRecs())
	b := NewBuilder(DefaultBuildConfig(false))
	r := b.Build(prb, brSeq, path.ID(1), 5, nil)
	if r == nil {
		t.Fatal("build failed")
	}
	// Slice: addi, load, andi, st.pcache = 4 (xori excluded).
	if r.Size() != 4 {
		t.Fatalf("routine size %d, want 4:\n%s", r.Size(), r)
	}
	for _, mi := range r.Insts {
		if mi.OrigPC == 11 {
			t.Error("unrelated instruction included in slice")
		}
	}
	if r.Insts[len(r.Insts)-1].Inst.Op != isa.OpStorePCache {
		t.Error("routine must end with Store_PCache")
	}
	// Live-in: r6 only (r5, r4, r7 computed in-slice).
	if len(r.LiveIns) != 1 || r.LiveIns[0] != 6 {
		t.Errorf("LiveIns = %v, want [6]", r.LiveIns)
	}
	// Full scope scanned: spawn at window start (seq 0, pc 10).
	if r.SpawnPC != 10 || r.SeqDelta != 4 {
		t.Errorf("spawn = pc%d delta%d, want pc10 delta4", r.SpawnPC, r.SeqDelta)
	}
	if r.BranchPC != 14 || r.BranchTarget != 99 {
		t.Errorf("branch = %d->%d", r.BranchPC, r.BranchTarget)
	}
}

func TestBuildExecutesCorrectly(t *testing.T) {
	prb, brSeq := fillPRB(scanRecs())
	b := NewBuilder(DefaultBuildConfig(false))
	r := b.Build(prb, brSeq, path.ID(1), 5, nil)
	res := Execute(r, testEnv())
	// r6=106 -> r5=110 -> load mem[110]=1110 -> andi 1110&2=2 -> beqz
	// not taken.
	if res.Taken {
		t.Error("branch should be computed not-taken (1110&2 = 2 != 0)")
	}
	if res.Target != 15 {
		t.Errorf("target = %d, want fall-through 15", res.Target)
	}
	if len(res.LoadedEAs) != 1 || res.LoadedEAs[0] != 110 {
		t.Errorf("LoadedEAs = %v, want [110]", res.LoadedEAs)
	}
}

func TestBuildScopeLimitsSlice(t *testing.T) {
	prb, brSeq := fillPRB(scanRecs())
	b := NewBuilder(DefaultBuildConfig(false))
	// Scope 3: window is seqs 2..4 (load, andi, branch). The addi at
	// seq 0 is outside: r5 becomes a live-in.
	r := b.Build(prb, brSeq, path.ID(1), 3, nil)
	if r == nil {
		t.Fatal("build failed")
	}
	if r.Size() != 3 {
		t.Fatalf("routine size %d, want 3:\n%s", r.Size(), r)
	}
	found := false
	for _, li := range r.LiveIns {
		if li == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("r5 should be a live-in, got %v", r.LiveIns)
	}
	if r.SpawnPC != 12 || r.SeqDelta != 2 {
		t.Errorf("spawn pc=%d delta=%d, want pc12 delta2", r.SpawnPC, r.SeqDelta)
	}
}

func TestBuildMemoryDependenceTerminates(t *testing.T) {
	// A store to the same address as the slice's load must terminate
	// extraction; the spawn point must follow the store.
	recs := []rec{
		{pc: 9, inst: isa.Inst{Op: isa.OpAddi, Dst: 5, Src1: 6, Imm: 4}},     // producer of r5 (cut off)
		{pc: 10, inst: isa.Inst{Op: isa.OpStore, Src1: 8, Src2: 9}, ea: 110}, // mem dep
		{pc: 11, inst: isa.Inst{Op: isa.OpLoad, Dst: 4, Src1: 5}, ea: 110},   // load
		{pc: 12, inst: isa.Inst{Op: isa.OpAndi, Dst: 7, Src1: 4, Imm: 2}},    // mask
		{pc: 13, inst: isa.Inst{Op: isa.OpBeqz, Src1: 7, Target: 99}},        // branch
	}
	prb, brSeq := fillPRB(recs)
	b := NewBuilder(DefaultBuildConfig(false))
	r := b.Build(prb, brSeq, path.ID(2), 5, nil)
	if r == nil {
		t.Fatal("build failed")
	}
	if b.Stats.TerminatedMemDep != 1 {
		t.Errorf("TerminatedMemDep = %d", b.Stats.TerminatedMemDep)
	}
	// The store is not included; the addi beyond it is cut off, so r5 is
	// a live-in and the spawn is the load (seq 2), after the store.
	if r.SpawnPC != 11 || r.SeqDelta != 2 {
		t.Errorf("spawn pc=%d delta=%d, want pc11 delta2", r.SpawnPC, r.SeqDelta)
	}
	for _, mi := range r.Insts {
		if mi.Inst.IsStore() {
			t.Error("store included in routine")
		}
		if mi.OrigPC == 9 {
			t.Error("instruction beyond memory dependence included")
		}
	}
	if !r.MemDepSpeculative {
		t.Error("routine with loads should be marked memory-speculative")
	}
}

func TestBuildMCBCapacityTerminates(t *testing.T) {
	// A long chain r4 += r4 ... with a tiny MCB.
	var recs []rec
	for i := 0; i < 20; i++ {
		recs = append(recs, rec{pc: isa.Addr(10 + i), inst: isa.Inst{Op: isa.OpAddi, Dst: 4, Src1: 4, Imm: 1}})
	}
	recs = append(recs, rec{pc: 30, inst: isa.Inst{Op: isa.OpBnez, Src1: 4, Target: 5}})
	prb, brSeq := fillPRB(recs)
	cfg := DefaultBuildConfig(false)
	cfg.MCBCapacity = 5
	cfg.ConstProp = false // keep the chain visible
	b := NewBuilder(cfg)
	r := b.Build(prb, brSeq, path.ID(3), len(recs), nil)
	if r == nil {
		t.Fatal("build failed")
	}
	if b.Stats.TerminatedMCBFull != 1 {
		t.Errorf("TerminatedMCBFull = %d (stats %+v)", b.Stats.TerminatedMCBFull, b.Stats)
	}
	if r.Size() > 5 {
		t.Errorf("routine size %d exceeds MCB capacity 5", r.Size())
	}
	// Spawn must be after the cut-off producers.
	if r.SeqDelta >= uint64(len(recs)) {
		t.Errorf("SeqDelta %d not constrained by MCB termination", r.SeqDelta)
	}
}

func TestBuildRenamingAvoidsWARHazard(t *testing.T) {
	// The slice reads r4 (live-in), and a non-slice instruction
	// overwrites r4 after the slice's consumer. With destination
	// renaming, the live-in read at spawn (which happens at window
	// start, before the clobber in program order -- but functionally the
	// spawn state has executed everything before the spawn point only)
	// must still feed the consumer correctly.
	recs := []rec{
		{pc: 10, inst: isa.Inst{Op: isa.OpAndi, Dst: 7, Src1: 4, Imm: 3}}, // consumer of live-in r4
		{pc: 11, inst: isa.Inst{Op: isa.OpLdi, Dst: 4, Imm: 777}},         // clobbers r4, NOT in slice
		{pc: 12, inst: isa.Inst{Op: isa.OpBeqz, Src1: 7, Target: 99}},     // branch on r7
	}
	prb, brSeq := fillPRB(recs)
	b := NewBuilder(DefaultBuildConfig(false))
	r := b.Build(prb, brSeq, path.ID(4), 3, nil)
	if r == nil {
		t.Fatal("build failed")
	}
	// r4 must be a live-in; spawn at window start (seq 0) so the read
	// happens before the clobber executes.
	if r.SpawnPC != 10 {
		t.Errorf("spawn pc = %d, want 10", r.SpawnPC)
	}
	// Execute: r4=104 -> r7 = 104&3 = 0 -> beqz taken.
	res := Execute(r, testEnv())
	if !res.Taken || res.Target != 99 {
		t.Errorf("result = %+v, want taken -> 99", res)
	}
}

func TestBuildInSliceRedefinition(t *testing.T) {
	// Two defs of r4 in-slice, consumers interleaved: renaming must wire
	// each consumer to its own def.
	//
	//	seq 0: ldi r4, #1
	//	seq 1: addi r5, r4, #10   (reads def1: 11)
	//	seq 2: ldi r4, #2
	//	seq 3: add r6, r4, r5     (reads def2 + r5: 13)
	//	seq 4: bnez r6 @50
	recs := []rec{
		{pc: 10, inst: isa.Inst{Op: isa.OpLdi, Dst: 4, Imm: 1}},
		{pc: 11, inst: isa.Inst{Op: isa.OpAddi, Dst: 5, Src1: 4, Imm: 10}},
		{pc: 12, inst: isa.Inst{Op: isa.OpLdi, Dst: 4, Imm: 2}},
		{pc: 13, inst: isa.Inst{Op: isa.OpAdd, Dst: 6, Src1: 4, Src2: 5}},
		{pc: 14, inst: isa.Inst{Op: isa.OpBnez, Src1: 6, Target: 50}},
	}
	prb, brSeq := fillPRB(recs)
	cfg := DefaultBuildConfig(false)
	cfg.ConstProp = false // exercise renaming, not folding
	b := NewBuilder(cfg)
	r := b.Build(prb, brSeq, path.ID(5), 5, nil)
	res := Execute(r, testEnv())
	// r6 = 2 + 11 = 13 != 0 -> taken.
	if !res.Taken || res.Target != 50 {
		t.Errorf("result = %+v, want taken -> 50:\n%s", res, r)
	}
	if len(r.LiveIns) != 0 {
		t.Errorf("LiveIns = %v, want none", r.LiveIns)
	}
}

func TestConstPropFoldsChain(t *testing.T) {
	// ldi/addi chains fold to a single constant; the whole routine
	// becomes Store_PCache over constants (plus dead-code removal).
	recs := []rec{
		{pc: 10, inst: isa.Inst{Op: isa.OpLdi, Dst: 4, Imm: 5}},
		{pc: 11, inst: isa.Inst{Op: isa.OpAddi, Dst: 5, Src1: 4, Imm: 3}},
		{pc: 12, inst: isa.Inst{Op: isa.OpMuli, Dst: 6, Src1: 5, Imm: 2}},
		{pc: 13, inst: isa.Inst{Op: isa.OpBnez, Src1: 6, Target: 50}},
	}
	prb, brSeq := fillPRB(recs)
	with := NewBuilder(DefaultBuildConfig(false))
	rw := with.Build(prb, brSeq, path.ID(6), 4, nil)

	cfg := DefaultBuildConfig(false)
	cfg.ConstProp = false
	without := NewBuilder(cfg)
	ro := without.Build(prb, brSeq, path.ID(6), 4, nil)

	if rw.Size() >= ro.Size() {
		t.Errorf("const prop did not shrink routine: %d vs %d", rw.Size(), ro.Size())
	}
	// Both must compute the same outcome: 16 != 0 -> taken.
	if res := Execute(rw, testEnv()); !res.Taken {
		t.Error("folded routine computed wrong outcome")
	}
	if res := Execute(ro, testEnv()); !res.Taken {
		t.Error("unfolded routine computed wrong outcome")
	}
}

func TestMoveElimination(t *testing.T) {
	recs := []rec{
		{pc: 10, inst: isa.Inst{Op: isa.OpAddi, Dst: 4, Src1: 6, Imm: 1}},
		{pc: 11, inst: isa.Inst{Op: isa.OpMov, Dst: 5, Src1: 4}},
		{pc: 12, inst: isa.Inst{Op: isa.OpMov, Dst: 7, Src1: 5}},
		{pc: 13, inst: isa.Inst{Op: isa.OpBnez, Src1: 7, Target: 50}},
	}
	prb, brSeq := fillPRB(recs)
	b := NewBuilder(DefaultBuildConfig(false))
	r := b.Build(prb, brSeq, path.ID(7), 4, nil)
	for _, mi := range r.Insts {
		if mi.Inst.Op == isa.OpMov {
			t.Errorf("mov not eliminated:\n%s", r)
		}
	}
	// addi + st.pcache.
	if r.Size() != 2 {
		t.Errorf("size = %d, want 2:\n%s", r.Size(), r)
	}
	// r6=106 -> 107 != 0 -> taken.
	if res := Execute(r, testEnv()); !res.Taken {
		t.Error("wrong outcome after move elimination")
	}
}

func TestValuePruning(t *testing.T) {
	// The load's value is marked confident: with pruning, the load and
	// its address computation collapse into one Vp_Inst.
	recs := scanRecs()
	recs[2].vconf = true
	prb, brSeq := fillPRB(recs)

	plain := NewBuilder(DefaultBuildConfig(false))
	rp := plain.Build(prb, brSeq, path.ID(8), 5, nil)
	pruned := NewBuilder(DefaultBuildConfig(true))
	ru := pruned.Build(prb, brSeq, path.ID(8), 5, nil)

	if ru.Size() >= rp.Size() {
		t.Errorf("pruning did not shrink: %d vs %d\n%s", ru.Size(), rp.Size(), ru)
	}
	if ru.PrunedSubtrees != 1 {
		t.Errorf("PrunedSubtrees = %d", ru.PrunedSubtrees)
	}
	hasVp := false
	for _, mi := range ru.Insts {
		if mi.Inst.Op == isa.OpVpInst {
			hasVp = true
			if mi.OrigPC != 12 {
				t.Errorf("Vp OrigPC = %d, want 12", mi.OrigPC)
			}
			if mi.Ahead < 1 {
				t.Errorf("Ahead = %d", mi.Ahead)
			}
		}
		if mi.Inst.IsLoad() {
			t.Error("pruned load still present")
		}
	}
	if !hasVp {
		t.Fatalf("no Vp_Inst emitted:\n%s", ru)
	}
	// Pruning kills the live-in too (r6 fed only the pruned sub-tree).
	if len(ru.LiveIns) != 0 {
		t.Errorf("LiveIns = %v, want none", ru.LiveIns)
	}
	// The executed outcome uses the predicted value: pc12 ahead1 ->
	// 5000+120+1 = 5121; 5121&2 = 0 -> beqz taken.
	res := Execute(ru, testEnv())
	if !res.Taken {
		t.Errorf("pruned routine outcome wrong: %+v", res)
	}
	if ru.DepChain >= rp.DepChain {
		t.Errorf("dep chain not reduced: %d vs %d", ru.DepChain, rp.DepChain)
	}
}

func TestAddressPruning(t *testing.T) {
	// The load's base is address-confident (but its value is not):
	// pruning keeps the load but replaces the base computation with
	// Ap_Inst.
	recs := scanRecs()
	recs[2].aconf = true
	prb, brSeq := fillPRB(recs)
	b := NewBuilder(DefaultBuildConfig(true))
	r := b.Build(prb, brSeq, path.ID(9), 5, nil)

	hasAp, hasLoad := false, false
	var apDst, loadBase isa.Reg
	for _, mi := range r.Insts {
		switch mi.Inst.Op {
		case isa.OpApInst:
			hasAp = true
			apDst = mi.Inst.Dst
			if mi.OrigPC != 12 {
				t.Errorf("Ap OrigPC = %d", mi.OrigPC)
			}
		case isa.OpLoad:
			hasLoad = true
			loadBase = mi.Inst.Src1
		case isa.OpAddi:
			if mi.OrigPC == 10 {
				t.Error("address computation not pruned")
			}
		}
	}
	if !hasAp || !hasLoad {
		t.Fatalf("Ap=%v load=%v:\n%s", hasAp, hasLoad, r)
	}
	if apDst != loadBase {
		t.Errorf("load base %d != Ap dst %d", loadBase, apDst)
	}
	if apDst < isa.NumRegs {
		t.Errorf("Ap temp %d should be a microcontext temporary", apDst)
	}
	// Executed: base = PredictAddr(12,1) = 7000+120+1 = 7121; load
	// mem[7121] = 8121; 8121&2 = 0 -> taken.
	res := Execute(r, testEnv())
	if !res.Taken {
		t.Errorf("outcome wrong: %+v", res)
	}
	if len(res.LoadedEAs) != 1 || res.LoadedEAs[0] != 7121 {
		t.Errorf("LoadedEAs = %v, want [7121]", res.LoadedEAs)
	}
}

func TestIndirectBranchRoutine(t *testing.T) {
	// jmpind through a register loaded from a table.
	recs := []rec{
		{pc: 10, inst: isa.Inst{Op: isa.OpAddi, Dst: 5, Src1: 6, Imm: 2}},
		{pc: 11, inst: isa.Inst{Op: isa.OpLoad, Dst: 4, Src1: 5}, ea: 108},
		{pc: 12, inst: isa.Inst{Op: isa.OpJmpInd, Src1: 4}, taken: true},
	}
	prb, brSeq := fillPRB(recs)
	b := NewBuilder(DefaultBuildConfig(false))
	r := b.Build(prb, brSeq, path.ID(10), 3, nil)
	res := Execute(r, testEnv())
	// r6=106 -> r5=108 -> mem[108]=1108 -> target 1108.
	if !res.Taken || res.Target != 1108 {
		t.Errorf("indirect result = %+v, want target 1108", res)
	}
}

func TestExpectedTakensRecorded(t *testing.T) {
	recs := []rec{
		{pc: 10, inst: isa.Inst{Op: isa.OpAddi, Dst: 4, Src1: 6, Imm: 1}},
		{pc: 11, inst: isa.Inst{Op: isa.OpJmp, Target: 20}, taken: true},
		{pc: 20, inst: isa.Inst{Op: isa.OpBnez, Src1: 9, Target: 30}, taken: true},
		{pc: 30, inst: isa.Inst{Op: isa.OpBnez, Src1: 4, Target: 50}},
	}
	prb, brSeq := fillPRB(recs)
	b := NewBuilder(DefaultBuildConfig(false))
	r := b.Build(prb, brSeq, path.ID(11), 4, nil)
	if len(r.ExpectedTakens) != 2 || r.ExpectedTakens[0] != 11 || r.ExpectedTakens[1] != 20 {
		t.Errorf("ExpectedTakens = %v, want [11 20]", r.ExpectedTakens)
	}
}

func TestBuildRejectsNonBranch(t *testing.T) {
	prb, _ := fillPRB(scanRecs())
	b := NewBuilder(DefaultBuildConfig(false))
	if r := b.Build(prb, 0, path.ID(1), 5, nil); r != nil {
		t.Error("build accepted a non-branch")
	}
	if r := b.Build(prb, 999, path.ID(1), 5, nil); r != nil {
		t.Error("build accepted an absent seq")
	}
}

func TestBuildStatsAverages(t *testing.T) {
	prb, brSeq := fillPRB(scanRecs())
	b := NewBuilder(DefaultBuildConfig(false))
	b.Build(prb, brSeq, path.ID(1), 5, nil)
	b.Build(prb, brSeq, path.ID(2), 3, nil)
	if b.Stats.Builds != 2 {
		t.Fatalf("Builds = %d", b.Stats.Builds)
	}
	if b.Stats.AvgSize() <= 0 || b.Stats.AvgChain() <= 0 {
		t.Error("averages not computed")
	}
	var empty BuildStats
	if empty.AvgSize() != 0 || empty.AvgChain() != 0 {
		t.Error("empty stats should average 0")
	}
}

func TestDepChain(t *testing.T) {
	// Chain: a->b->c is depth 3; an independent d is depth 1.
	insts := []MicroInst{
		{Inst: isa.Inst{Op: isa.OpLdi, Dst: 64, Imm: 1}},
		{Inst: isa.Inst{Op: isa.OpAddi, Dst: 65, Src1: 64, Imm: 1}},
		{Inst: isa.Inst{Op: isa.OpAddi, Dst: 66, Src1: 65, Imm: 1}},
		{Inst: isa.Inst{Op: isa.OpLdi, Dst: 67, Imm: 9}},
	}
	if _, got := decode(insts); got != 3 {
		t.Errorf("depChain = %d, want 3", got)
	}
}
