// Package uthreadtest holds the random routine-source programs that the
// microthread tests of internal/uthread and internal/cpu share.
package uthreadtest

import (
	"math/rand"

	"dpbp/internal/isa"
	"dpbp/internal/program"
)

// RandProgram builds a random straight-line program: a data image, a
// sequence of ALU ops, loads, and stores over registers r4..r19, ending in
// a conditional branch to a halt label. Deterministic per seed.
func RandProgram(seed int64, withStores bool) *program.Program {
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
