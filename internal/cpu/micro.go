package cpu

import (
	"math"
	"math/bits"
	"slices"

	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/obs"
	"dpbp/internal/pcache"
	"dpbp/internal/uthread"
)

// issueRec remembers a microthread instruction's booked resources so an
// abort can refund the ones that have not executed yet, and its
// completion cycle, which later instructions of the spawn wait for.
type issueRec struct {
	cycle  uint64
	done   uint64
	isLoad bool
}

// mctx is one microcontext: the state of an active spawned microthread.
type mctx struct {
	r         *uthread.Routine
	spawnSeq  uint64
	targetSeq uint64
	expIdx    int
	// watch holds the routine's loaded addresses; its backing array is
	// reused across spawns. Routines load a handful of words, so a linear
	// search of a flat slice is the cheapest lookup.
	watch []isa.Addr
	// issues holds one record per routine instruction; the last one's
	// done is the cycle the prediction is delivered.
	issues []issueRec
}

// trySpawns attempts to spawn every routine whose spawn point is the
// instruction about to be fetched at pc (sequence number seq, fetch cycle
// fc). Spawns that cannot get a microcontext are dropped — the paper's
// "aborted before allocating a microcontext" bucket.
//
//dpbp:speculative
func (m *Machine) trySpawns(pc isa.Addr, seq uint64, fc uint64) {
	cands := m.uram.SpawnCandidates(pc)
	if len(cands) == 0 {
		return
	}
	if m.throttled {
		m.res.Micro.SkippedByThrottle += uint64(len(cands))
		return
	}
	for _, r := range cands {
		if r.ReadyAt > fc {
			continue // still being built
		}
		m.res.Micro.AttemptedSpawns++
		if m.obs != nil {
			m.obs.Emit(obs.KindSpawnAttempt, uint64(r.PathID), seq, 0)
		}
		// Path_History screen: this dynamic instance of the spawn PC
		// is only on the routine's path if the most recent taken
		// branches match the path prefix before the spawn point.
		// Mismatches are aborted before a microcontext is allocated.
		if m.cfg.AbortEnabled && !m.tracker.EndsWith(r.PrefixTakens) {
			m.res.Micro.PrefixMismatchDrops++
			if m.obs != nil {
				m.obs.Emit(obs.KindSpawnDropPrefix, uint64(r.PathID), seq, 0)
			}
			continue
		}
		ci := m.freeContext()
		if ci < 0 {
			m.res.Micro.NoContextDrops++
			if m.obs != nil {
				m.obs.Emit(obs.KindSpawnDropNoContext, uint64(r.PathID), seq, 0)
			}
			continue
		}
		// SMT: microcontexts are a machine-wide budget. This thread has a
		// free slot of its own, but co-runners' in-flight microthreads may
		// hold the shared allocation — a distinct denial cause with its
		// own counter, checked after the local one so solo accounting is
		// untouched (solo, the local array is the whole budget and the
		// shared check can never fire).
		if m.smt != nil && m.smt.active >= m.smt.limit {
			m.res.Micro.CoRunnerDenied++
			if m.obs != nil {
				m.obs.Emit(obs.KindSpawnDropCoRunner, uint64(r.PathID), seq, 0)
			}
			continue
		}
		m.spawn(ci, r, seq, fc)
	}
}

// freeContext returns the index of the lowest-numbered free microcontext,
// or -1 when all are active.
//
//dpbp:speculative
func (m *Machine) freeContext() int {
	if m.activeCtxs == len(m.ctxs) {
		return -1
	}
	for w, bw := range m.activeBits {
		if bw != ^uint64(0) {
			if i := w*64 + bits.TrailingZeros64(^bw); i < len(m.ctxs) {
				return i
			}
		}
	}
	return -1
}

// activate and deactivate keep the active count and minTarget in sync
// with the activeBits record; every transition goes through them.
//
//dpbp:speculative
func (m *Machine) activate(i int) {
	m.activeCtxs++
	m.activeBits[i>>6] |= 1 << (i & 63)
	m.minTarget = min(m.minTarget, m.ctxs[i].targetSeq)
	if m.smt != nil {
		m.smt.active++
	}
}

//dpbp:speculative
func (m *Machine) deactivate(i int) {
	m.activeCtxs--
	m.activeBits[i>>6] &^= 1 << (i & 63)
	if m.ctxs[i].targetSeq == m.minTarget {
		m.minTarget = m.activeMinTarget()
	}
	if m.smt != nil {
		m.smt.active--
	}
}

// activeMinTarget returns the smallest targetSeq over active contexts,
// or math.MaxUint64 when none is active.
//
//dpbp:speculative
func (m *Machine) activeMinTarget() uint64 {
	least := uint64(math.MaxUint64)
	for w, bw := range m.activeBits {
		for bw != 0 {
			i := w*64 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			least = min(least, m.ctxs[i].targetSeq)
		}
	}
	return least
}

// spawn allocates a microcontext and runs the routine in one pass: each
// instruction executes against the primary thread's architectural state at
// the spawn point and is scheduled through the shared execution resources
// in the same iteration.
//
//dpbp:speculative
func (m *Machine) spawn(ci int, r *uthread.Routine, seq, fc uint64) {
	ctx := &m.ctxs[ci]
	m.res.Micro.Spawned++
	if m.obs != nil {
		m.obs.Emit(obs.KindSpawn, uint64(r.PathID), seq, uint64(ci))
	}
	m.windowSpawns++

	// Functional execution: the emulator has executed exactly the
	// instructions before seq, which is the architectural state the
	// paper's spawn-point selection guarantees. Live-ins read its
	// registers, loads its memory, and Vp_Inst/Ap_Inst the machine's
	// value and address predictors; uthread's Step defines what each
	// instruction computes. Each loaded address goes straight into the
	// context's watch list.
	//
	// Timing: live-ins become ready when their primary-thread producers
	// complete, in-routine operands when their producer slot completes.
	// Loads reach the memory system in slot order.
	if cap(m.uvals) < len(r.Slots) {
		m.uvals = make([]isa.Word, len(r.Slots))
	}
	vals := m.uvals[:len(r.Slots)]
	var out uthread.Outcome
	watch := ctx.watch[:0]
	start := fc + uint64(m.cfg.SpawnOverhead)
	issues := ctx.issues[:0]
	// Microcontext queues feed injectPerCycle instructions into the
	// machine per cycle.
	inject, injected := start, 0
	for i := range r.Slots {
		s := &r.Slots[i]
		ready := inject
		if injected++; injected == injectPerCycle {
			inject++
			injected = 0
		}
		for k, p := range s.Prod {
			if p >= 0 {
				ready = max(ready, issues[p].done)
			} else if reg := s.LiveIn[k]; reg != isa.RZero {
				ready = max(ready, m.regReady[reg]) // live-in from the primary thread
			}
		}
		ir := issueRec{isLoad: s.Load}
		switch read, ea := r.Step(i, vals, &m.em.Regs, &out); read {
		case uthread.ReadMem:
			vals[i] = m.em.Mem.Load(ea)
			watch = append(watch, ea)
			ir.cycle = earliest2(m.fus, m.ports, ready)
			ir.done = ir.cycle + uint64(m.msys.LoadLatency(m.space(ea), ir.cycle))
		case uthread.ReadValue:
			vals[i], _ = m.vp.Predict(r.Insts[i].OrigPC, r.Insts[i].Ahead)
		case uthread.ReadAddr:
			vals[i], _ = m.ap.Predict(r.Insts[i].OrigPC, r.Insts[i].Ahead)
		}
		if !s.Load {
			ir.cycle = m.fus.earliest(ready)
			ir.done = ir.cycle + uint64(s.Latency)
		}
		issues = append(issues, ir)
	}
	m.res.Micro.MicroInsts += uint64(len(r.Slots))
	complete := issues[len(issues)-1].done

	targetSeq := seq + r.SeqDelta
	*ctx = mctx{
		r:         r,
		spawnSeq:  seq,
		targetSeq: targetSeq,
		watch:     watch,
		issues:    issues,
	}
	m.activate(ci)

	if m.cfg.UsePredictions {
		m.predCache.Write(pcache.Entry{
			Ctx:    m.ctxID,
			PathID: r.PathID,
			Seq:    targetSeq,
			Taken:  out.Taken,
			Target: out.Target,
			Ready:  complete,
		})
		if m.obs != nil {
			m.obs.Emit(obs.KindPCacheWrite, uint64(r.PathID), targetSeq, complete)
		}
	}
}

// wrongPathSpawns walks the instructions the front end would have fetched
// down a mispredicted path — following fall-through and direct jumps and
// calls, stopping at the first conditional or indirect branch (whose
// wrong-path direction the model cannot know) — and performs spawn
// attempts for them. The sequence numbers assigned approximate the
// renamer's reassignment after recovery; the resulting contexts are
// monitored against the correct-path stream and abort on its first
// deviation from their expected path.
//
//dpbp:speculative
func (m *Machine) wrongPathSpawns(start isa.Addr, seq uint64, fc uint64) {
	limit := redirectPenalty * m.cfg.FetchWidth / 2
	if limit > 64 {
		limit = 64
	}
	pc := start
	for i := 0; i < limit; i++ {
		if !m.prog.Valid(pc) {
			return
		}
		before := m.res.Micro.AttemptedSpawns
		m.trySpawns(pc, seq, fc)
		m.res.Micro.WrongPathAttempts += m.res.Micro.AttemptedSpawns - before

		in := m.prog.At(pc)
		switch {
		case in.Op == isa.OpJmp, in.Op == isa.OpCall:
			pc = in.Target
		case in.IsBranch():
			return // direction or target unknowable on the wrong path
		default:
			pc++
		}
	}
}

// monitorContexts advances every active microcontext past the fetched
// instruction rec: memory-dependence violation detection, completion at
// the target branch, and the Path_History abort check on taken branches.
//
//dpbp:speculative
func (m *Machine) monitorContexts(rec *emu.Record, fc uint64) {
	// The record's properties are loop-invariant; evaluate them once,
	// not per active context.
	isStore := rec.Inst.IsStore()
	abortable := m.cfg.AbortEnabled && rec.Taken && rec.Inst.IsBranch()
	// Only a store (violation check), an abortable taken branch (the
	// Path_History check) or reaching a context's target branch
	// (completion) can change a context. Any other instruction before
	// the earliest target leaves every context as it is.
	if !isStore && !abortable && rec.Seq < m.minTarget {
		return
	}
	for w, bw := range m.activeBits {
		for bw != 0 {
			i := w*64 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			ctx := &m.ctxs[i]
			if rec.Seq <= ctx.spawnSeq {
				continue
			}
			if isStore && slices.Contains(ctx.watch, rec.EA) {
				// The primary thread stored to an address the
				// microthread read at spawn: the speculated memory
				// state was stale. Rebuild the routine (Section 4.2.4);
				// the stale prediction itself stays and simply risks
				// being wrong.
				m.res.Micro.MemDepViolations++
				if m.obs != nil {
					m.obs.Emit(obs.KindMemDepViolation, uint64(ctx.r.PathID), rec.Seq, uint64(rec.EA))
				}
				if m.cfg.RebuildOnViolation {
					m.uram.MarkRebuild(ctx.r.PathID)
				}
			}
			if rec.Seq >= ctx.targetSeq {
				m.deactivate(i)
				m.res.Micro.Completed++
				if m.obs != nil {
					m.obs.Emit(obs.KindComplete, uint64(ctx.r.PathID), ctx.spawnSeq, uint64(i))
				}
				continue
			}
			if abortable {
				if ctx.expIdx < len(ctx.r.ExpectedTakens) && ctx.r.ExpectedTakens[ctx.expIdx] == rec.PC {
					ctx.expIdx++
				} else {
					m.abortContext(i, fc)
				}
			}
		}
	}
}

// abortContext reclaims a microcontext whose primary thread left the
// predicted path: unexecuted instructions are refunded from the resource
// calendars (instructions already in the window cannot be aborted, per
// Section 4.3.2), and an undelivered prediction is cancelled.
//
//dpbp:speculative
func (m *Machine) abortContext(ci int, fc uint64) {
	ctx := &m.ctxs[ci]
	m.res.Micro.AbortedActive++
	if m.obs != nil {
		m.obs.Emit(obs.KindAbortActive, uint64(ctx.r.PathID), ctx.spawnSeq, uint64(ci))
	}
	for _, ir := range ctx.issues {
		if ir.cycle > fc {
			m.fus.remove(ir.cycle)
			if ir.isLoad {
				m.ports.remove(ir.cycle)
			}
		}
	}
	if m.cfg.UsePredictions && ctx.issues[len(ctx.issues)-1].done > fc {
		m.predCache.Remove(m.ctxID, ctx.r.PathID, ctx.targetSeq)
	}
	m.deactivate(ci)
}
