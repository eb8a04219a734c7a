// Package uthread implements the microthread machinery of Section 4.2:
// the Post-Retirement Buffer (PRB), the Microthread Builder with its
// Microthread Construction Buffer (MCB) optimisations (move elimination,
// constant propagation, memory-dependence speculation, pruning), microthread
// routines, and the MicroRAM that stores them.
package uthread

import (
	"dpbp/internal/emu"
	"dpbp/internal/isa"
)

// PRBEntry is one retired instruction held in the PRB: the parts of its
// retirement record the Microthread Builder reads, plus the value/address
// predictor confidence snapshotted as the instruction entered the buffer
// (Section 4.2.5).
type PRBEntry struct {
	Seq  uint64
	PC   isa.Addr
	Inst isa.Inst
	// EA is the effective address of a load or store.
	EA    isa.Addr
	Taken bool
	// VConfident records whether the value predictor was confident in
	// this instruction's destination value at retirement.
	VConfident bool
	// AConfident records whether the address predictor was confident in
	// this load's base-register value at retirement.
	AConfident bool
}

// PRB is the Post-Retirement Buffer: a ring of the last i retired
// instructions (the paper uses i = 512). Entries are addressed by their
// dynamic sequence number.
type PRB struct {
	buf  []PRBEntry //dpbp:reset-skip stale entries are gated by size, which Reset zeroes
	size int
	// next is the sequence number the next pushed entry must carry;
	// enforcing contiguity keeps BySeq O(1).
	next    uint64
	started bool
	// at is the ring slot next written, maintained incrementally so the
	// per-retirement push avoids a non-constant modulo. Contiguity keeps
	// the invariant at == next%len(buf), which is what BySeq indexes by.
	at int
}

// NewPRB returns a PRB holding capacity entries.
func NewPRB(capacity int) *PRB {
	if capacity < 1 {
		capacity = 1
	}
	return &PRB{buf: make([]PRBEntry, capacity)}
}

// Cap returns the buffer capacity.
func (p *PRB) Cap() int { return len(p.buf) }

// Len returns the number of live entries.
func (p *PRB) Len() int { return p.size }

// Push appends a retired instruction with its confidence snapshot.
// Sequence numbers must be contiguous; Push panics otherwise (the
// retirement stream is in-order by definition).
func (p *PRB) Push(rec *emu.Record, vconf, aconf bool) {
	if p.started {
		if rec.Seq != p.next {
			panic("uthread: PRB push out of order")
		}
	} else {
		p.started = true
		p.at = int(rec.Seq % uint64(len(p.buf)))
	}
	e := &p.buf[p.at]
	if p.at++; p.at == len(p.buf) {
		p.at = 0
	}
	e.Seq, e.PC, e.Inst, e.EA, e.Taken = rec.Seq, rec.PC, rec.Inst, rec.EA, rec.Taken
	e.VConfident, e.AConfident = vconf, aconf
	p.next = rec.Seq + 1
	if p.size < len(p.buf) {
		p.size++
	}
}

// YoungestSeq returns the sequence number of the youngest entry. It is
// only meaningful when Len() > 0.
func (p *PRB) YoungestSeq() uint64 { return p.next - 1 }

// OldestSeq returns the sequence number of the oldest live entry.
func (p *PRB) OldestSeq() uint64 { return p.next - uint64(p.size) }

// BySeq returns the entry with the given sequence number, or nil if it has
// been pushed out or never pushed.
func (p *PRB) BySeq(seq uint64) *PRBEntry {
	if p.size == 0 || seq >= p.next || seq < p.OldestSeq() {
		return nil
	}
	return &p.buf[seq%uint64(len(p.buf))]
}
