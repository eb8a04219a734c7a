// Package emu is the functional emulator: it executes a program
// architecturally and produces the dynamic instruction stream consumed by
// the predictors, the path machinery, and the timing core.
//
// The timing simulator is execution-driven: it steps the emulator as it
// fetches down the correct path, so the emulator's register file and memory
// always hold the architectural state at the current fetch point. That is
// exactly the state a spawned microthread reads its live-ins from (the
// spawn point is chosen so that all live-in dependences are satisfied
// architecturally — Section 4.2.4 of the paper).
package emu

import (
	"fmt"
	"slices"
	"sort"

	"dpbp/internal/isa"
	"dpbp/internal/program"
)

// pageBits sizes memory pages: 4096 words per page.
const pageBits = 12

// page is one page of data memory.
type page = [1 << pageBits]isa.Word

// Memory is a sparse, paged word-addressed data memory. Programs touch a
// handful of pages (data segment plus stack), so pages live in a small
// slice scanned linearly, fronted by a one-entry cache of the last page
// hit; both beat a map's hashing on this access pattern.
//
// A page that lies wholly inside the data image Reset loads is not
// copied: it points into the image, which every emulator of the program
// shares read-only, and the first Store to it copies it. A page the image
// only partly covers is copied at Reset.
type Memory struct {
	pageAddrs []isa.Addr // page numbers, parallel to pages
	pages     []*page
	image     []bool // image[i]: pages[i] aliases the image, copy before writing
	// free holds the private pages Reset released, reused before
	// allocating new ones.
	free      []*page
	lastAddr  isa.Addr // page number of the last page hit
	lastPg    *page
	lastImage bool // lastPg aliases the image
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{}
}

// Reset empties the memory and loads image at base, keeping the storage
// of its private pages for reuse. The memory never writes to image.
func (m *Memory) Reset(base isa.Addr, image []isa.Word) {
	for i, pg := range m.pages {
		if !m.image[i] {
			m.free = append(m.free, pg)
		}
	}
	m.pageAddrs, m.pages, m.image = m.pageAddrs[:0], m.pages[:0], m.image[:0]
	m.lastAddr, m.lastPg, m.lastImage = 0, nil, false
	for i := 0; i < len(image); {
		addr := base + isa.Addr(i)
		off := int(addr & (1<<pageBits - 1))
		n := min(1<<pageBits-off, len(image)-i)
		if n == 1<<pageBits {
			m.pageAddrs = append(m.pageAddrs, addr>>pageBits)
			m.pages = append(m.pages, (*page)(image[i:i+n]))
			m.image = append(m.image, true)
		} else {
			copy(m.writable(addr >> pageBits)[off:], image[i:i+n])
		}
		i += n
	}
}

// page returns the page with number pn, or nil if the memory holds none.
func (m *Memory) page(pn isa.Addr) *page {
	if m.lastPg != nil && pn == m.lastAddr {
		return m.lastPg
	}
	for i, a := range m.pageAddrs {
		if a == pn {
			m.lastAddr, m.lastPg, m.lastImage = pn, m.pages[i], m.image[i] //dpbp:nonarch last-page lookup cache, not architectural state
			return m.lastPg
		}
	}
	return nil
}

// writable returns a page with number pn that Store may write: it copies
// a page that aliases the image, and adds a zeroed page if the memory
// holds none.
func (m *Memory) writable(pn isa.Addr) *page {
	pg := m.newPage()
	if i := slices.Index(m.pageAddrs, pn); i >= 0 {
		*pg = *m.pages[i]
		m.pages[i], m.image[i] = pg, false
	} else {
		m.pageAddrs = append(m.pageAddrs, pn)
		m.pages = append(m.pages, pg)
		m.image = append(m.image, false)
	}
	m.lastAddr, m.lastPg, m.lastImage = pn, pg, false
	return pg
}

// newPage returns a zeroed private page, reusing one Reset released.
func (m *Memory) newPage() *page {
	n := len(m.free)
	if n == 0 {
		return new(page)
	}
	pg := m.free[n-1]
	m.free = m.free[:n-1]
	*pg = page{}
	return pg
}

// Load returns the word at addr (zero if never written).
func (m *Memory) Load(addr isa.Addr) isa.Word {
	pg := m.page(addr >> pageBits)
	if pg == nil {
		return 0
	}
	return pg[addr&(1<<pageBits-1)]
}

// Store writes the word at addr.
func (m *Memory) Store(addr isa.Addr, v isa.Word) {
	pg := m.page(addr >> pageBits)
	if pg == nil || m.lastImage {
		pg = m.writable(addr >> pageBits)
	}
	pg[addr&(1<<pageBits-1)] = v
}

// MemWord is one nonzero word of a memory image, as reported by Snapshot.
type MemWord struct {
	Addr isa.Addr
	Val  isa.Word
}

// Snapshot appends every nonzero word of the memory to dst in ascending
// address order and returns the extended slice. The order is independent
// of page allocation history, so two memories with equal contents always
// snapshot identically — which is what makes the snapshot comparable
// across independently-run machines (differential verification diffs the
// final memory image this way).
func (m *Memory) Snapshot(dst []MemWord) []MemWord {
	order := make([]int, len(m.pageAddrs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return m.pageAddrs[order[a]] < m.pageAddrs[order[b]]
	})
	for _, i := range order {
		base := m.pageAddrs[i] << pageBits
		pg := m.pages[i]
		for off, v := range pg {
			if v != 0 {
				dst = append(dst, MemWord{Addr: base + isa.Addr(off), Val: v})
			}
		}
	}
	return dst
}

// Record describes one retired dynamic instruction.
type Record struct {
	// Seq is the dynamic sequence number, starting at 0.
	Seq uint64
	// PC is the instruction's address.
	PC isa.Addr
	// Inst is the decoded instruction.
	Inst isa.Inst
	// NextPC is the architecturally correct next PC.
	NextPC isa.Addr
	// Taken reports whether a control-flow instruction redirected
	// (conditional taken, or any jump/call/ret). Always false for
	// non-branches.
	Taken bool
	// SrcVal holds the values of the source registers, in ReadsInto
	// order.
	SrcVal [2]isa.Word
	// SrcReg holds the NSrc source register names, in ReadsInto order,
	// so consumers need not re-derive them from Inst.
	SrcReg [2]isa.Reg
	// NSrc is the number of source registers the instruction reads.
	NSrc uint8
	// DstVal is the value written to the destination register, if any.
	DstVal isa.Word
	// EA is the effective address for loads and stores.
	EA isa.Addr
}

// Machine is the architectural state of one running program.
type Machine struct {
	Prog *program.Program
	Regs [isa.NumRegs]isa.Word
	Mem  *Memory

	// meta and code cache each static instruction's decode (ReadsInto
	// and the execution-kind classification are pure functions of the
	// instruction), so Step pays table reads per dynamic instruction
	// instead of decode switches.
	meta []instMeta //dpbp:reset-skip rebuilt by indexProg, which Reset calls
	code []isa.Inst //dpbp:reset-skip rebuilt by indexProg, which Reset calls

	pc     isa.Addr
	seq    uint64
	halted bool
}

// instMeta is the per-PC decode cache: the source registers an
// instruction reads (zero-padded past nsrc) and the execution kind.
type instMeta struct {
	src  [2]isa.Reg
	nsrc uint8
	kind uint8
}

// Execution kinds, mirroring the mutually-exclusive cases of Step's
// dispatch in its original test order.
const (
	kALU uint8 = iota
	kLoad
	kStore
	kCond
	kJmp
	kJmpInd
	kCall
	kRet
	kBad // unexecutable in primary code; Step panics
)

// kindOf classifies one instruction for Step's dispatch.
func kindOf(in isa.Inst) uint8 {
	switch {
	case isa.IsALU(in.Op):
		return kALU
	case in.Op == isa.OpLoad:
		return kLoad
	case in.Op == isa.OpStore:
		return kStore
	case in.IsCondBranch():
		return kCond
	case in.Op == isa.OpJmp:
		return kJmp
	case in.Op == isa.OpJmpInd:
		return kJmpInd
	case in.Op == isa.OpCall:
		return kCall
	case in.Op == isa.OpRet:
		return kRet
	}
	return kBad
}

// New creates a machine with the program loaded: data image installed,
// SP/GP initialised by the program's own prologue, PC at the entry point.
// The machine shares p's data image read-only (see Memory).
func New(p *program.Program) *Machine {
	m := &Machine{Mem: NewMemory()}
	m.Reset(p)
	return m
}

// indexProg (re)builds the decode cache for the loaded program.
func (m *Machine) indexProg() {
	m.code = m.Prog.Code
	if cap(m.meta) < len(m.code) {
		m.meta = make([]instMeta, len(m.code))
	}
	m.meta = m.meta[:len(m.code)]
	for i := range m.code {
		var md instMeta
		md.nsrc = uint8(m.code[i].ReadsInto(&md.src))
		md.kind = kindOf(m.code[i])
		m.meta[i] = md
	}
}

// PC returns the address of the next instruction to execute.
func (m *Machine) PC() isa.Addr { return m.pc }

// Seq returns the sequence number the next Step will produce.
func (m *Machine) Seq() uint64 { return m.seq }

// Halted reports whether the program has reached its halt idiom
// (an unconditional jump to itself).
func (m *Machine) Halted() bool { return m.halted }

// Reg returns the current value of r.
func (m *Machine) Reg(r isa.Reg) isa.Word {
	if r == isa.RZero {
		return 0
	}
	return m.Regs[r]
}

// setReg writes r, discarding writes to RZero.
func (m *Machine) setReg(r isa.Reg, v isa.Word) {
	if r != isa.RZero {
		m.Regs[r] = v
	}
}

// Step executes one instruction and fills rec with its retirement record.
// It returns false without executing anything when the machine is halted.
// Step panics on structural errors (PC out of range, micro-instruction in
// primary code); Program.Validate prevents both for generated programs.
func (m *Machine) Step(rec *Record) bool {
	if m.halted {
		return false
	}
	if !m.Prog.Valid(m.pc) {
		panic(fmt.Sprintf("emu: PC %d out of range in %q", m.pc, m.Prog.Name))
	}

	rec.Seq = m.seq
	rec.PC = m.pc
	rec.Inst = m.code[m.pc]
	rec.Taken = false
	rec.EA = 0
	rec.DstVal = 0

	// Regs[RZero] is never written (setReg discards, Reset zeroes), so
	// plain indexing reads the architecturally-correct zero without the
	// Reg accessor's branch — and, because meta zero-pads src past nsrc,
	// it also yields the required zeros for the unused SrcVal slots.
	in := &rec.Inst
	md := &m.meta[m.pc]
	rec.SrcReg = md.src
	rec.NSrc = md.nsrc
	rec.SrcVal[0] = m.Regs[md.src[0]]
	rec.SrcVal[1] = m.Regs[md.src[1]]

	next := m.pc + 1
	switch md.kind {
	case kALU:
		v := isa.EvalALU(in.Op, m.Regs[in.Src1], m.Regs[in.Src2], in.Imm)
		m.setReg(in.Dst, v)
		rec.DstVal = v

	case kLoad:
		ea := isa.Addr(m.Regs[in.Src1] + in.Imm)
		v := m.Mem.Load(ea)
		m.setReg(in.Dst, v)
		rec.EA = ea
		rec.DstVal = v

	case kStore:
		ea := isa.Addr(m.Regs[in.Src1] + in.Imm)
		m.Mem.Store(ea, m.Regs[in.Src2])
		rec.EA = ea

	case kCond:
		if isa.BranchTaken(in.Op, m.Regs[in.Src1], m.Regs[in.Src2]) {
			next = in.Target
			rec.Taken = true
		}

	case kJmp:
		next = in.Target
		rec.Taken = true
		if next == m.pc {
			m.halted = true
		}

	case kJmpInd:
		next = isa.Addr(m.Regs[in.Src1])
		rec.Taken = true

	case kCall:
		m.setReg(isa.RRA, isa.Word(m.pc+1))
		rec.DstVal = isa.Word(m.pc + 1)
		next = in.Target
		rec.Taken = true

	case kRet:
		next = isa.Addr(m.Regs[in.Src1])
		rec.Taken = true

	default:
		panic(fmt.Sprintf("emu: cannot execute %v at %d", in.Op, m.pc))
	}

	rec.NextPC = next
	m.pc = next
	m.seq++
	return true
}

// Run executes up to maxInsts instructions, invoking visit for each record.
// It stops early at halt or when visit returns false, and returns the
// number of instructions executed.
func (m *Machine) Run(maxInsts uint64, visit func(*Record) bool) uint64 {
	var rec Record
	var n uint64
	for n < maxInsts {
		if !m.Step(&rec) {
			break
		}
		n++
		if visit != nil && !visit(&rec) {
			break
		}
	}
	return n
}

// Reset rewinds the machine to the initial state for program p — data
// image installed, registers zeroed, PC at the entry point — reusing the
// memory pages already allocated by a previous run.
func (m *Machine) Reset(p *program.Program) {
	m.Prog = p
	m.Regs = [isa.NumRegs]isa.Word{}
	m.Mem.Reset(p.DataBase, p.Data)
	m.pc = p.Entry
	m.seq = 0
	m.halted = false
	m.indexProg()
}
