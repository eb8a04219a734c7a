package uthread

// Property-based tests of the Microthread Builder: for randomly generated
// straight-line computations, a routine built from the PRB and executed
// against the pre-window architectural state must reproduce the
// terminating branch's actual outcome exactly (when nothing violates its
// memory speculation), with or without the MCB optimisations.

import (
	"math/rand"
	"testing"

	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/path"
	"dpbp/internal/program"
)

// randProgram builds a random straight-line program: a data image, a
// sequence of ALU ops, loads, and stores over registers r4..r19, ending in
// a conditional branch to a halt label. Deterministic per seed.
func randProgram(seed int64, withStores bool) *program.Program {
	rng := rand.New(rand.NewSource(seed))
	b := program.NewBuilder("prop")
	const dataBase = 1000
	b.Label("entry")
	// Initialise a few registers from data so values are non-trivial.
	for r := isa.Reg(4); r < 8; r++ {
		b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 20, Imm: dataBase + isa.Word(r)*2})
		b.Emit(isa.Inst{Op: isa.OpLoad, Dst: r, Src1: 20})
	}
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		dst := isa.Reg(4 + rng.Intn(16))
		s1 := isa.Reg(4 + rng.Intn(16))
		s2 := isa.Reg(4 + rng.Intn(16))
		switch rng.Intn(8) {
		case 0:
			b.Emit(isa.Inst{Op: isa.OpAdd, Dst: dst, Src1: s1, Src2: s2})
		case 1:
			b.Emit(isa.Inst{Op: isa.OpXor, Dst: dst, Src1: s1, Src2: s2})
		case 2:
			b.Emit(isa.Inst{Op: isa.OpAddi, Dst: dst, Src1: s1, Imm: isa.Word(rng.Intn(64) - 32)})
		case 3:
			b.Emit(isa.Inst{Op: isa.OpAndi, Dst: dst, Src1: s1, Imm: isa.Word(rng.Intn(255))})
		case 4:
			b.Emit(isa.Inst{Op: isa.OpMov, Dst: dst, Src1: s1})
		case 5:
			b.Emit(isa.Inst{Op: isa.OpLdi, Dst: dst, Imm: isa.Word(rng.Intn(1000))})
		case 6:
			// Load from a small data region.
			b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 21, Imm: dataBase + isa.Word(rng.Intn(32))})
			b.Emit(isa.Inst{Op: isa.OpLoad, Dst: dst, Src1: 21})
		case 7:
			if withStores {
				b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 22, Imm: dataBase + isa.Word(rng.Intn(32))})
				b.Emit(isa.Inst{Op: isa.OpStore, Src1: 22, Src2: s1})
			} else {
				b.Emit(isa.Inst{Op: isa.OpOr, Dst: dst, Src1: s1, Src2: s2})
			}
		}
	}
	cond := []isa.Op{isa.OpBeqz, isa.OpBnez, isa.OpBltz, isa.OpBgez, isa.OpBeq, isa.OpBne}
	br := isa.Inst{Op: cond[rng.Intn(len(cond))], Src1: isa.Reg(4 + rng.Intn(16)), Src2: isa.Reg(4 + rng.Intn(16))}
	b.EmitBranch(br, "halt")
	b.Label("halt")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "halt")
	p := b.Finish()
	p.DataBase = dataBase
	p.Data = make([]isa.Word, 64)
	for i := range p.Data {
		p.Data[i] = isa.Word(rng.Int63n(1 << 20))
	}
	return p
}

// runToBranch executes the program, filling the PRB and capturing the
// branch record and a pre-execution snapshot machine for live-in reads.
func runToBranch(t *testing.T, p *program.Program, cfg BuildConfig) (routine *Routine, actualTaken bool, env *Env) {
	t.Helper()
	prb := NewPRB(512)
	snapshot := emu.New(p) // stays at entry: spawn-time state source
	m := emu.New(p)
	var branchRec *emu.Record
	m.Run(10_000, func(r *emu.Record) bool {
		prb.Push(r, false, false)
		if r.Inst.IsTerminatingBranch() {
			rc := *r
			branchRec = &rc
			return false
		}
		return true
	})
	if branchRec == nil {
		t.Fatal("no terminating branch executed")
	}

	builder := NewBuilder(cfg)
	// Scope covers the whole run: the entire straight line is one
	// fall-through region.
	routine = builder.Build(prb, branchRec.Seq, path.ID(1), int(branchRec.Seq)+1, nil)
	if routine == nil {
		t.Fatal("build failed")
	}

	// The spawn state: replay the snapshot machine up to the spawn
	// point (seq of branch - SeqDelta).
	spawnSeq := branchRec.Seq - routine.SeqDelta
	var cnt uint64
	snapshot.Run(spawnSeq, func(r *emu.Record) bool { cnt++; return true })
	env = &Env{
		ReadReg:      snapshot.Reg,
		LoadMem:      snapshot.Mem.Load,
		PredictValue: func(pc isa.Addr, ahead int) (isa.Word, bool) { return 0, false },
		PredictAddr:  func(pc isa.Addr, ahead int) (isa.Word, bool) { return 0, false },
	}
	return routine, branchRec.Taken, env
}

func TestPropertyRoutineReproducesBranch(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := randProgram(seed, false) // no stores: speculation always safe
		for _, cfg := range []BuildConfig{
			{MCBCapacity: 64},
			{MCBCapacity: 64, MoveElim: true},
			{MCBCapacity: 64, ConstProp: true},
			{MCBCapacity: 64, MoveElim: true, ConstProp: true},
		} {
			r, taken, env := runToBranch(t, p, cfg)
			res := Execute(r, env)
			if res.Taken != taken {
				t.Fatalf("seed %d cfg %+v: routine computed taken=%v, actual %v\n%s",
					seed, cfg, res.Taken, taken, r)
			}
		}
	}
}

func TestPropertyRoutineWithStoresStillSound(t *testing.T) {
	// With stores present, extraction may terminate at a memory
	// dependence; the spawn point then follows the store, so the
	// snapshot (replayed to the spawn point) still yields the exact
	// outcome.
	for seed := int64(100); seed < 150; seed++ {
		p := randProgram(seed, true)
		cfg := DefaultBuildConfig(false)
		r, taken, env := runToBranch(t, p, cfg)
		res := Execute(r, env)
		if res.Taken != taken {
			t.Fatalf("seed %d: routine computed taken=%v, actual %v\n%s",
				seed, res.Taken, taken, r)
		}
	}
}

func TestPropertyOptimisationsOnlyShrink(t *testing.T) {
	for seed := int64(200); seed < 240; seed++ {
		p := randProgram(seed, false)
		plain, _, _ := runToBranch(t, p, BuildConfig{MCBCapacity: 64})
		opt, _, _ := runToBranch(t, p, BuildConfig{MCBCapacity: 64, MoveElim: true, ConstProp: true})
		if opt.Size() > plain.Size() {
			t.Errorf("seed %d: optimisations grew routine %d -> %d",
				seed, plain.Size(), opt.Size())
		}
		if opt.DepChain > plain.DepChain {
			t.Errorf("seed %d: optimisations lengthened chain %d -> %d",
				seed, plain.DepChain, opt.DepChain)
		}
		if len(opt.LiveIns) > len(plain.LiveIns) {
			t.Errorf("seed %d: optimisations added live-ins %v -> %v",
				seed, plain.LiveIns, opt.LiveIns)
		}
	}
}

func TestPropertyRoutineEndsWithStorePCache(t *testing.T) {
	for seed := int64(300); seed < 330; seed++ {
		p := randProgram(seed, true)
		r, _, _ := runToBranch(t, p, DefaultBuildConfig(false))
		if r.Size() == 0 {
			t.Fatalf("seed %d: empty routine", seed)
		}
		last := r.Insts[r.Size()-1]
		if last.Inst.Op != isa.OpStorePCache {
			t.Fatalf("seed %d: routine ends with %v", seed, last.Inst.Op)
		}
		for _, mi := range r.Insts[:r.Size()-1] {
			if mi.Inst.Op == isa.OpStorePCache {
				t.Fatalf("seed %d: Store_PCache not last", seed)
			}
			if mi.Inst.IsStore() || mi.Inst.IsBranch() {
				t.Fatalf("seed %d: illegal %v in routine body", seed, mi.Inst.Op)
			}
		}
	}
}

func TestPropertyLiveInsAreReal(t *testing.T) {
	// Every reported live-in must actually be read before written by the
	// routine, and no unreported register below isa.NumRegs may be.
	for seed := int64(400); seed < 430; seed++ {
		p := randProgram(seed, false)
		r, _, _ := runToBranch(t, p, DefaultBuildConfig(false))
		want := map[isa.Reg]bool{}
		written := map[isa.Reg]bool{}
		var buf [2]isa.Reg
		for _, mi := range r.Insts {
			n := mi.Inst.ReadsInto(&buf)
			for i := 0; i < n; i++ {
				rg := buf[i]
				if rg != isa.RZero && rg < isa.NumRegs && !written[rg] {
					want[rg] = true
				}
			}
			if dst, ok := mi.Inst.Writes(); ok {
				written[dst] = true
			}
		}
		got := map[isa.Reg]bool{}
		for _, li := range r.LiveIns {
			got[li] = true
		}
		for rg := range want {
			if !got[rg] {
				t.Errorf("seed %d: live-in r%d missing from %v", seed, rg, r.LiveIns)
			}
		}
		for rg := range got {
			if !want[rg] {
				t.Errorf("seed %d: spurious live-in r%d", seed, rg)
			}
		}
	}
}

// TestSlotsMatchDirectDecode checks the schedule template Build attaches
// to every routine the property generator yields, with and without
// stores, optimisations and pruning (confidence bits drawn at random so
// Vp_Inst and Ap_Inst appear), against a direct decode of Insts: each
// operand's producer is the last earlier instruction that writes it,
// else the operand is a live-in register below isa.NumRegs, else RZero;
// loads are marked; every other instruction carries isa.Latency, or 2
// for a predictor query. Builder output writes each temporary once, so a
// hand-built routine adds a temporary written twice and one never
// written.
func TestSlotsMatchDirectDecode(t *testing.T) {
	handBuilt := &Routine{Insts: []MicroInst{
		{Inst: isa.Inst{Op: isa.OpLdi, Dst: 64, Imm: 1}},
		{Inst: isa.Inst{Op: isa.OpAddi, Dst: 64, Src1: 64, Imm: 1}},
		{Inst: isa.Inst{Op: isa.OpAdd, Dst: 65, Src1: 64, Src2: 70}},
		{Inst: isa.Inst{Op: isa.OpStorePCache, Src1: 65, Src2: 5}, BranchOp: isa.OpBeq},
	}}
	handBuilt.Slots, _ = decode(handBuilt.Insts)
	routines := []*Routine{handBuilt}
	for seed := int64(0); seed < 450; seed++ {
		for _, withStores := range []bool{false, true} {
			p := randProgram(seed, withStores)
			for _, cfg := range []BuildConfig{{MCBCapacity: 64}, DefaultBuildConfig(false), DefaultBuildConfig(true)} {
				routines = append(routines, buildWithRandomConfidence(t, p, cfg, seed))
			}
		}
	}
	var loads, predicts, producers, liveIns int
	for _, r := range routines {
		if len(r.Slots) != len(r.Insts) {
			t.Fatalf("%d slots for %d instructions\n%s", len(r.Slots), len(r.Insts), r)
		}
		for i, mi := range r.Insts {
			s := r.Slots[i]
			var buf [2]isa.Reg
			n := mi.Inst.ReadsInto(&buf)
			for k := 0; k < 2; k++ {
				wantProd, wantLive := int32(-1), isa.RZero
				if k < n {
					for j := i - 1; j >= 0; j-- {
						if dst, ok := r.Insts[j].Inst.Writes(); ok && dst == buf[k] {
							wantProd = int32(j)
							break
						}
					}
					if wantProd < 0 && buf[k] < isa.NumRegs {
						wantLive = buf[k]
					}
				}
				if s.Prod[k] != wantProd || s.LiveIn[k] != wantLive {
					t.Fatalf("inst %d (%v) operand %d: slot Prod %d LiveIn r%d, want %d r%d\n%s",
						i, mi.Inst, k, s.Prod[k], s.LiveIn[k], wantProd, wantLive, r)
				}
				if wantProd >= 0 {
					producers++
				} else if wantLive != isa.RZero {
					liveIns++
				}
			}
			wantLat := uint8(isa.Latency(mi.Inst.Op))
			switch {
			case mi.Inst.IsLoad():
				loads++
			case mi.Inst.Op == isa.OpVpInst || mi.Inst.Op == isa.OpApInst:
				predicts++
				wantLat = 2
			}
			if s.Load != mi.Inst.IsLoad() || (!s.Load && s.Latency != wantLat) {
				t.Fatalf("inst %d (%v): slot Load %v Latency %d, want %v %d\n%s",
					i, mi.Inst, s.Load, s.Latency, mi.Inst.IsLoad(), wantLat, r)
			}
		}
	}
	if loads == 0 || predicts == 0 || producers == 0 || liveIns == 0 {
		t.Errorf("vacuous: %d loads, %d predictor queries, %d in-routine operands, %d live-in operands",
			loads, predicts, producers, liveIns)
	}
}

// buildWithRandomConfidence runs p to its terminating branch, filling the
// PRB with confidence bits drawn from seed, and builds the branch's
// routine.
func buildWithRandomConfidence(t *testing.T, p *program.Program, cfg BuildConfig, seed int64) *Routine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prb := NewPRB(512)
	var branchSeq uint64
	found := false
	emu.New(p).Run(10_000, func(r *emu.Record) bool {
		prb.Push(r, rng.Intn(2) == 0, rng.Intn(2) == 0)
		if r.Inst.IsTerminatingBranch() {
			branchSeq, found = r.Seq, true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no terminating branch executed")
	}
	r := NewBuilder(cfg).Build(prb, branchSeq, path.ID(1), int(branchSeq)+1, nil)
	if r == nil {
		t.Fatal("build failed")
	}
	return r
}
