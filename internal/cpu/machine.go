package cpu

import (
	"context"
	"math"

	"dpbp/internal/bpred"
	"dpbp/internal/bpred/h2p"
	"dpbp/internal/cache"
	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/mem"
	"dpbp/internal/obs"
	"dpbp/internal/path"
	"dpbp/internal/pathcache"
	"dpbp/internal/pcache"
	"dpbp/internal/program"
	"dpbp/internal/uthread"
	"dpbp/internal/vpred"
)

// Machine holds the state of one timing run. A Machine is reusable:
// Reset rewinds every component for a new (program, config) pair,
// recycling the large allocations that dominate a fresh construction:
// the window ring, the resource calendars, the branch predictor's
// tables, the cache arrays, the value and address predictor tables
// (resized for each program within their storage) and the emulator's
// private memory pages (the program's data image is shared, not
// copied).
// Obtain reusable instances from NewMachine or a Pool; the package-level
// Run remains the one-shot convenience path.
type Machine struct {
	cfg  Config
	prog *program.Program
	em   *emu.Machine

	pred    *bpred.Predictor
	vp, ap  *vpred.Predictor
	msys    *mem.System
	l1i     *cache.Cache
	tracker *path.Tracker

	// h2pGate, when Config.H2PSpawnGate is on, classifies terminating
	// branches as hard-to-predict; promotion is rejected for branches it
	// considers easy. nil when the gate is off.
	h2pGate *h2p.Filter

	pathCache *pathcache.Cache
	prb       *uthread.PRB
	builder   *uthread.Builder
	uram      *uthread.MicroRAM
	predCache *pcache.Cache

	// uenv is the microthreads' view of the machine, built once per
	// Machine: its closures read the current components through m, so
	// spawns share it instead of allocating an Env (and four closures)
	// each.
	uenv uthread.Env

	builderFreeAt uint64
	promoted      map[path.ID]struct{} // ModePerfectPromoted's promoted set
	prePromoted   map[path.ID]struct{} // profile-guided unconditional promotions

	// Spawn-throttle feedback state.
	throttled      bool
	windowBranches int
	windowFixes    uint64
	windowSpawns   uint64

	ctxs []mctx
	// activeCtxs counts active microcontexts so monitorContexts — which
	// otherwise scans every context for every retired instruction — can
	// skip the scan entirely while nothing is in flight.
	activeCtxs int
	// activeBits records which microcontexts are active (bit i for
	// ctxs[i]), so the per-retirement monitor visits only live contexts
	// and context allocation finds the lowest free slot without a scan.
	activeBits []uint64
	// minTarget is the smallest targetSeq over active contexts
	// (math.MaxUint64 when none is active). No context can complete
	// before it, so monitorContexts skips most instructions outright.
	minTarget uint64

	fus, ports *calendar
	regReady   [isa.NumRegs]uint64
	// retRing is sized to the next power of two >= WindowSize so the
	// per-instruction slot index is a mask, not a division; slot
	// seq&retMask holds the retire cycle of instruction seq until
	// overwritten >= len(retRing) instructions later.
	retRing  []uint64
	retMask  uint64
	lastRet  uint64
	retCount int

	// Front-end state.
	fc           uint64
	instsThis    int
	branchesThis int
	linesThis    []uint64
	redirectAt   uint64
	lastLine     uint64
	haveLine     bool

	// SMT identity. ctxID tags obs events, Prediction Cache entries and
	// the addresses sent to the shared caches (space) with the owning
	// primary context; smt, when non-nil, is the SMT run's machine-wide
	// microcontext budget that spawns compete for. fcStride/fcPhase pin
	// this thread's fetch cycles onto its round-robin slot lattice
	// (cycle ≡ fcPhase mod fcStride); a stride of 0 or 1 disables the
	// lattice. Reset zeroes all four — solo runs never see them — and
	// RunSMT assigns them after Reset.
	ctxID    uint8
	smt      *smtShared
	fcStride uint64
	fcPhase  uint64

	// obs is the run's lifecycle tracer (nil when tracing is off). Every
	// emit site guards with a nil check on the concrete pointer, so the
	// disabled path costs one compare and the simulation never reads it.
	obs *obs.Tracer

	res Result
}

// Run executes prog on a fresh machine and returns its statistics.
func Run(prog *program.Program, cfg Config) *Result {
	r, _ := NewMachine().RunContext(context.Background(), prog, cfg)
	return r
}

// NewMachine returns an empty reusable machine. Reset (or RunContext,
// which calls it) sizes the components on first use.
func NewMachine() *Machine { return &Machine{} }

// Reset prepares the machine to run prog under cfg. Components whose
// sizing matches the previous run are rewound in place; the rest are
// reallocated. A reset machine is bit-identical in behaviour to a freshly
// constructed one (TestResetMatchesFresh holds this).
func (m *Machine) Reset(prog *program.Program, cfg Config) {
	cfg = cfg.Canonical()
	prev := m.cfg
	fresh := m.em == nil
	m.cfg = cfg
	m.prog = prog

	// Components with fixed Table 3 sizes are built once and rewound. The
	// value and address predictors are built once too, and each Reset
	// sizes them for the program it loads.
	if fresh {
		m.em = emu.New(prog)
		m.vp = vpred.New(vpred.DefaultConfig(), len(prog.Code))
		m.ap = vpred.New(vpred.DefaultConfig(), len(prog.Code))
		m.msys = mem.New(mem.DefaultConfig())
		m.prb = uthread.NewPRB(prbEntries)
		m.builder = uthread.NewBuilder(uthread.DefaultBuildConfig(cfg.Pruning))
		m.fus = newCalendar(funcUnits)
		m.ports = newCalendar(l1Ports)
		m.promoted = make(map[path.ID]struct{})
		m.prePromoted = make(map[path.ID]struct{})
		m.uenv = uthread.Env{
			ReadReg: func(r isa.Reg) isa.Word { return m.em.Reg(r) },
			LoadMem: func(a isa.Addr) isa.Word { return m.em.Mem.Load(a) },
			PredictValue: func(pc isa.Addr, ahead int) (isa.Word, bool) {
				return m.vp.Predict(pc, ahead)
			},
			PredictAddr: func(pc isa.Addr, ahead int) (isa.Word, bool) {
				return m.ap.Predict(pc, ahead)
			},
		}
	} else {
		m.em.Reset(prog)
		m.vp.Reset(len(prog.Code))
		m.ap.Reset(len(prog.Code))
		m.msys.Reset()
		m.prb.Reset()
		m.builder.Reset(uthread.DefaultBuildConfig(cfg.Pruning))
		m.fus.reset()
		m.ports.reset()
	}
	if fresh || prev.BPred != cfg.BPred {
		p, err := bpred.NewNamed(bpred.DefaultConfig(), cfg.BPred)
		if err != nil {
			// CLI and experiment layers validate backend names up front;
			// reaching here means an internal caller bypassed them. The
			// scheduler isolates panics into run errors.
			panic(err)
		}
		m.pred = p
	} else {
		m.pred.Reset()
	}
	gateOn := cfg.H2PSpawnGate &&
		(cfg.Mode == ModeMicrothread || cfg.Mode == ModePerfectPromoted)
	switch {
	case !gateOn:
		m.h2pGate = nil
	case m.h2pGate == nil:
		m.h2pGate = h2p.NewFilter(h2p.DefaultConfig())
	default:
		m.h2pGate.Reset()
	}
	if fresh || prev.L1IWords != cfg.L1IWords || prev.L1IWays != cfg.L1IWays {
		m.l1i = cache.New(cache.Config{
			SizeWords: cfg.L1IWords, Ways: cfg.L1IWays, LineWords: 8,
		})
	} else {
		m.l1i.Reset()
	}
	if fresh || prev.N != cfg.N {
		m.tracker = path.NewTracker(cfg.N)
	} else {
		m.tracker.Reset()
	}
	if fresh || prev.PathCache != cfg.PathCache {
		m.pathCache = pathcache.New(cfg.PathCache)
	} else {
		m.pathCache.Reset()
	}
	if fresh || prev.MicroRAMEntries != cfg.MicroRAMEntries {
		m.uram = uthread.NewMicroRAM(cfg.MicroRAMEntries)
	} else {
		m.uram.Reset()
	}
	if fresh || prev.PCacheEntries != cfg.PCacheEntries {
		m.predCache = pcache.New(cfg.PCacheEntries)
	} else {
		m.predCache.Reset()
	}

	// clear keeps the maps' storage, so a warm machine does not regrow
	// them for the next run's promotions.
	clear(m.promoted)
	clear(m.prePromoted)
	m.builderFreeAt = 0
	for _, id := range cfg.PrePromoted {
		m.prePromoted[path.ID(id)] = struct{}{}
		if cfg.Mode == ModePerfectPromoted {
			m.promoted[path.ID(id)] = struct{}{}
		}
	}

	m.throttled = false
	m.windowBranches = 0
	m.windowFixes = 0
	m.windowSpawns = 0

	if len(m.ctxs) != cfg.Microcontexts {
		m.ctxs = make([]mctx, cfg.Microcontexts)
	} else {
		for i := range m.ctxs {
			// Keep the issue and watch backing arrays: both are refilled
			// on every spawn and were the sweeps' dominant allocations.
			m.ctxs[i] = mctx{issues: m.ctxs[i].issues[:0], watch: m.ctxs[i].watch[:0]}
		}
	}
	m.activeCtxs = 0
	m.minTarget = math.MaxUint64
	if words := (cfg.Microcontexts + 63) / 64; len(m.activeBits) != words {
		m.activeBits = make([]uint64, words)
	} else {
		clear(m.activeBits)
	}

	m.regReady = [isa.NumRegs]uint64{}
	ringLen := 1
	for ringLen < cfg.WindowSize {
		ringLen <<= 1
	}
	if len(m.retRing) != ringLen {
		m.retRing = make([]uint64, ringLen)
	} else {
		clear(m.retRing)
	}
	m.retMask = uint64(ringLen - 1)
	m.lastRet = 0
	m.retCount = 0

	m.ctxID = 0
	m.smt = nil
	m.fcStride = 0
	m.fcPhase = 0

	// Tracing: the Path Cache shares the machine's tracer so its events
	// carry fetch-cycle timestamps (via SetNow in execute).
	m.obs = cfg.Obs
	m.pathCache.Trace = m.obs

	m.fc = 0
	m.instsThis = 0
	m.branchesThis = 0
	m.linesThis = m.linesThis[:0]
	m.redirectAt = 0
	m.lastLine = 0
	m.haveLine = false

	m.res = Result{Benchmark: prog.Name, Mode: cfg.Mode, Pruning: cfg.Pruning}
}

// ctxCheckInterval is how many retired instructions pass between context
// polls: frequent enough that cancellation lands within microseconds,
// cheap enough to vanish in the run's cost.
const ctxCheckInterval = 4096

// RunContext resets the machine for (prog, cfg) and executes until the
// instruction budget, program halt, or context cancellation. The returned
// Result is a copy owned by the caller — the machine may be Reset and
// reused immediately. On cancellation or deadline the partial statistics
// accumulated so far are returned alongside the context's error.
func (m *Machine) RunContext(ctx context.Context, prog *program.Program, cfg Config) (*Result, error) {
	m.Reset(prog, cfg)
	cfg = m.cfg // defaults applied
	var rs runState
	m.beginRun(&rs)
	for m.res.Insts < cfg.MaxInsts && !rs.halted {
		if m.res.Insts%ctxCheckInterval == 0 && ctx.Err() != nil {
			break
		}
		if !m.stepOne(&rs) {
			break
		}
	}
	m.finishRun()
	out := m.res
	return &out, ctx.Err()
}

// runState is the per-thread progress of one timing run: the locally
// tracked stream position. RunContext drives one to completion;
// RunSMT interleaves one per primary context under the fetch arbiter.
type runState struct {
	rec    emu.Record
	pc     isa.Addr
	seq    uint64
	halted bool
	// expire: only microthread runs populate the prediction cache, so
	// only they have entries to expire.
	expire bool
}

// beginRun initializes rs at the emulator's position. Must follow
// Reset; pc and seq track the fetch point locally — after each record
// they are rec.NextPC and rec.Seq+1 — so the run loop pays one emulator
// call per instruction (Step) instead of four.
func (m *Machine) beginRun(rs *runState) {
	rs.pc, rs.seq = m.em.PC(), m.em.Seq()
	rs.halted = m.em.Halted()
	rs.expire = m.cfg.Mode == ModeMicrothread
}

// stepOne fetches, executes, and retires the machine's next primary
// instruction. It returns false when the emulator is exhausted; the halt
// idiom (an unconditional self-jump) turns rs.halted true instead,
// exactly when the emulator's Halted would. The operation order is the
// single-thread run loop's, unchanged — RunContext is a straight
// loop over stepOne, which is what keeps solo runs and 1-context SMT
// runs bit-identical to the pre-SMT machine.
func (m *Machine) stepOne(rs *runState) bool {
	fc := m.fetchCycleFor(rs.pc, m.prog.Code[rs.pc].IsBranch(), rs.seq)
	if m.obs != nil {
		// Stamp subsequent events (including the Path Cache's, which
		// has no clock of its own) with this instruction's fetch cycle
		// and owning context, and take a periodic occupancy sample.
		m.obs.SetNow(fc)
		m.obs.SetCtx(m.ctxID)
		if m.obs.ShouldSample(fc) {
			m.obs.AddSample(obs.Sample{
				Cycle:      fc,
				ActiveCtxs: m.activeCtxs,
				WindowOcc:  m.windowOcc(fc),
				FetchSlots: m.instsThis,
			})
		}
	}
	if m.cfg.Mode == ModeMicrothread {
		m.trySpawns(rs.pc, rs.seq, fc)
	}
	if !m.em.Step(&rs.rec) {
		return false
	}
	m.res.Insts++
	m.execute(&rs.rec, fc)
	if m.cfg.OnRetire != nil {
		m.cfg.OnRetire(int(m.ctxID), &rs.rec)
	}
	if rs.expire && rs.rec.Seq%64 == 0 {
		m.predCache.Expire(m.ctxID, rs.rec.Seq)
	}
	rs.halted = rs.rec.Inst.Op == isa.OpJmp && rs.rec.NextPC == rs.rec.PC
	rs.pc, rs.seq = rs.rec.NextPC, rs.rec.Seq+1
	return true
}

// finishRun assembles the run's statistics into m.res.
func (m *Machine) finishRun() {
	m.res.Cycles = m.lastRet
	m.res.PredStats = m.pred.Stats
	m.res.Backend = m.pred.BackendStats()
	m.res.PathCache = m.pathCache.Stats
	m.res.PCache = m.predCache.Stats
	m.res.Build = m.builder.Stats
	m.res.AvgRoutineSize = m.builder.Stats.AvgSize()
	m.res.AvgDepChain = m.builder.Stats.AvgChain()
	m.res.L1MissRate = m.msys.L1.MissRate()
	m.res.L2MissRate = m.msys.L2.MissRate()
}

// ArchRegs returns the architectural register file as of the last retired
// instruction. Valid after RunContext returns, until the next Reset.
func (m *Machine) ArchRegs() [isa.NumRegs]isa.Word { return m.em.Regs }

// ArchMem appends the final architectural memory image (nonzero words,
// ascending address order) to dst and returns it. Valid after RunContext
// returns, until the next Reset.
func (m *Machine) ArchMem(dst []emu.MemWord) []emu.MemWord { return m.em.Mem.Snapshot(dst) }

func (m *Machine) resetFetch() {
	m.instsThis = 0
	m.branchesThis = 0
	m.linesThis = m.linesThis[:0]
}

func (m *Machine) advanceCycle() {
	m.fc++
	m.resetFetch()
}

// alignFetch snaps the front-end clock forward onto this thread's
// round-robin fetch-slot lattice (cycles ≡ fcPhase mod fcStride): under
// the round-robin arbiter each of K co-running primaries owns every K-th
// fetch cycle, which is how the single-thread front-end model shares its
// fetch bandwidth without simulating per-slot port arbitration. Solo
// runs and icount-arbitrated runs leave fcStride at 0, making this a
// no-op.
func (m *Machine) alignFetch() {
	if m.fcStride <= 1 {
		return
	}
	if r := m.fc % m.fcStride; r != m.fcPhase {
		m.fc += (m.fcPhase + m.fcStride - r) % m.fcStride
		m.resetFetch()
	}
}

// fetchCycleFor computes the fetch cycle of the instruction at pc with
// dynamic index i, advancing the front-end state: redirect gaps, window
// occupancy gating, fetch width, branch-prediction bandwidth, and I-cache
// line bandwidth and misses.
func (m *Machine) fetchCycleFor(pc isa.Addr, isBr bool, i uint64) uint64 {
	if m.redirectAt > m.fc {
		m.fc = m.redirectAt
		m.resetFetch()
	}
	m.redirectAt = 0

	// Window gate: instruction i cannot rename before instruction
	// i-WindowSize has retired.
	if w := uint64(m.cfg.WindowSize); i >= w {
		gate := m.retRing[(i-w)&m.retMask]
		if gate > m.fc+frontLatency {
			m.fc = gate - frontLatency
			m.resetFetch()
		}
	}

	for {
		m.alignFetch()
		if m.instsThis >= m.cfg.FetchWidth {
			m.advanceCycle()
			continue
		}
		if isBr && m.branchesThis >= m.cfg.BranchesPerCycle {
			m.advanceCycle()
			continue
		}
		line := m.l1i.Line(m.space(pc))
		if !containsLine(m.linesThis, line) {
			if len(m.linesThis) >= icacheLinesPerCycle {
				m.advanceCycle()
				continue
			}
			// Sequential next-line fills are covered by the
			// front end's streaming prefetcher (the paper models
			// "a very efficient trace cache"); only discontinuous
			// fetches pay the miss penalty.
			sequential := m.haveLine && line == m.lastLine+1
			if !m.l1i.Access(m.space(pc)) && !sequential {
				m.fc += icacheMissPenalty
				m.resetFetch()
				m.alignFetch()
			}
			m.lastLine = line
			m.haveLine = true
			m.linesThis = append(m.linesThis, line)
		}
		break
	}
	m.instsThis++
	if isBr {
		m.branchesThis++
	}
	return m.fc
}

// space returns the address the shared memory hierarchy and L1 I-cache
// see for this context's address a: the context index in the top byte.
// Every primary context has its own emulator and memory, and every
// program uses the same data base, so without it one context would hit
// lines its co-runner loaded for other data. The XOR keeps the map one to
// one, and context 0 — every solo run — sees its addresses unchanged.
func (m *Machine) space(a isa.Addr) isa.Addr { return a ^ isa.Addr(m.ctxID)<<56 }

// windowOcc approximates out-of-order window occupancy at fetch cycle fc:
// how many retirement-ring slots still hold retire cycles beyond fc, i.e.
// recently fetched instructions not yet retired. The ring covers the last
// WindowSize instructions, which bounds the answer exactly as the real
// window does.
func (m *Machine) windowOcc(fc uint64) int {
	n := 0
	for _, rc := range m.retRing {
		if rc > fc {
			n++
		}
	}
	return n
}

func containsLine(lines []uint64, l uint64) bool {
	for _, x := range lines {
		if x == l {
			return true
		}
	}
	return false
}

// retire assigns the in-order retirement cycle for an instruction
// completing at complete, honouring retirement bandwidth.
func (m *Machine) retire(complete uint64) uint64 {
	rc := complete
	if rc < m.lastRet {
		rc = m.lastRet
	}
	if rc == m.lastRet {
		m.retCount++
		if m.retCount > m.cfg.RetireWidth {
			rc++
			m.retCount = 1
		}
	} else {
		m.retCount = 1
	}
	m.lastRet = rc
	return rc
}

// redirect schedules a fetch redirect: the next instruction cannot fetch
// before cycle at + redirectPenalty.
func (m *Machine) redirect(at uint64) {
	t := at + redirectPenalty
	if t > m.redirectAt {
		m.redirectAt = t
	}
}

// execute models one fetched-and-retired primary instruction: scheduling,
// branch prediction and redirects, microthread monitoring, and the
// retirement-side structures (predictor training, PRB, Path Cache,
// builder).
func (m *Machine) execute(rec *emu.Record, fc uint64) {
	cfg := &m.cfg
	in := rec.Inst

	// Rename and operand readiness.
	ready := fc + frontLatency
	for i := 0; i < int(rec.NSrc); i++ {
		if r := rec.SrcReg[i]; r != isa.RZero && m.regReady[r] > ready {
			ready = m.regReady[r]
		}
	}

	// Issue and completion.
	var complete uint64
	switch {
	case in.IsLoad():
		issue := earliest2(m.fus, m.ports, ready)
		complete = issue + uint64(m.msys.LoadLatency(m.space(rec.EA), issue))
	case in.IsStore():
		issue := m.fus.earliest(ready)
		complete = issue + uint64(m.msys.StoreLatency(m.space(rec.EA), issue))
	default:
		issue := m.fus.earliest(ready)
		complete = issue + uint64(isa.Latency(in.Op))
	}
	if dst, ok := in.Writes(); ok {
		m.regReady[dst] = complete
	}
	retC := m.retire(complete)
	m.retRing[rec.Seq&m.retMask] = retC

	// Path identity must be taken before this branch enters the tracker,
	// and retireSide (which may snapshot the tracker's branch history for
	// the builder) must run before Observe. Only the microthreaded modes
	// consume the identity; baseline and perfect-all runs skip the hash.
	// Scope is needed only on the (rare) build path, so retireSide
	// computes it on demand.
	usesMicro := cfg.Mode == ModeMicrothread || cfg.Mode == ModePerfectPromoted
	var termID path.ID
	if usesMicro && in.IsTerminatingBranch() {
		termID = m.tracker.ID(rec.PC)
	}

	var hwMiss bool
	if in.IsBranch() {
		hwMiss = m.handleBranch(rec, fc, complete, termID)
	}

	if cfg.Mode == ModeMicrothread && m.activeCtxs > 0 {
		m.monitorContexts(rec, fc)
	}

	if usesMicro {
		m.retireSide(rec, retC, termID, hwMiss)
	}

	// Path identity and Path_History feed only the microthreaded modes
	// (spawn-prefix matching, promotion, the builder); the baseline and
	// perfect-all runs never read either, so they skip the bookkeeping.
	if usesMicro && rec.Taken {
		m.tracker.Observe(path.TakenBranch{PC: rec.PC, Target: rec.NextPC, Seq: rec.Seq})
	}
}

// handleBranch performs fetch-time prediction (hardware, oracle, or
// microthread), resolves it against the actual outcome, and schedules any
// redirect. It returns whether the hardware predictor mispredicted.
func (m *Machine) handleBranch(rec *emu.Record, fc, resolve uint64, termID path.ID) bool {
	cfg := &m.cfg
	in := rec.Inst
	pr := m.pred.Predict(rec.PC, in)
	hwMiss := m.pred.Update(rec.PC, in, pr, rec.Taken, rec.NextPC)

	hwNext := pr.Target
	if in.IsCondBranch() && !pr.Taken {
		hwNext = rec.PC + 1
	}

	if !in.IsTerminatingBranch() {
		// Direct jumps and calls never mispredict; returns can (RAS
		// exhaustion) and cost a full redirect.
		if hwMiss {
			m.redirect(resolve)
		}
		return hwMiss
	}

	m.res.Branches++
	if hwMiss {
		m.res.HWMispredicts++
	}

	next := hwNext
	handled := false

	switch cfg.Mode {
	case ModePerfectAll:
		next = rec.NextPC
	case ModePerfectPromoted:
		if _, ok := m.promoted[termID]; ok {
			next = rec.NextPC
		}
	case ModeMicrothread:
		if cfg.UsePredictions {
			if e, ok := m.predCache.Consume(m.ctxID, termID, rec.Seq); ok {
				eNext := e.Target
				if in.IsCondBranch() && !e.Taken {
					eNext = rec.PC + 1
				}
				switch {
				case e.Ready <= fc:
					// Early: the prediction steers fetch in
					// place of the hardware prediction.
					m.res.Micro.Early++
					if m.obs != nil {
						m.obs.Emit(obs.KindDeliveryEarly, uint64(termID), rec.Seq, e.Ready)
						m.obs.ObserveEarlySlack(fc - e.Ready)
					}
					m.res.Micro.UsedPredictions++
					next = eNext
					if eNext == rec.NextPC {
						m.res.Micro.CorrectUsed++
						if hwNext != rec.NextPC {
							m.res.Micro.UsedFixed++
							m.windowFixes++
						}
					} else {
						m.res.Micro.WrongUsed++
						if hwNext == rec.NextPC {
							m.res.Micro.UsedBroke++
						}
					}
				case e.Ready <= resolve:
					// Late: fetch already used the hardware
					// prediction; a differing microthread
					// prediction initiates a recovery.
					m.res.Micro.Late++
					if m.obs != nil {
						m.obs.Emit(obs.KindDeliveryLate, uint64(termID), rec.Seq, e.Ready)
						m.obs.ObserveLateSlack(e.Ready - fc)
					}
					if eNext != hwNext {
						switch {
						case eNext == rec.NextPC:
							// Genuine early recovery:
							// redirect at delivery
							// instead of resolution.
							m.res.Micro.EarlyRecoveries++
							m.windowFixes++
							m.res.Mispredicts++
							at := e.Ready
							if at < fc {
								at = fc
							}
							m.redirect(at)
							handled = true
						case hwNext == rec.NextPC:
							// Bogus recovery: a correct
							// hardware prediction was
							// overridden; the machine
							// discovers it at resolve.
							m.res.Micro.BogusRecoveries++
							m.res.Mispredicts++
							m.redirect(resolve)
							handled = true
						default:
							// Both wrong; resolution
							// redirects as usual.
							m.res.Mispredicts++
							m.redirect(resolve)
							handled = true
						}
					}
				default:
					// Useless: arrived after resolution.
					m.res.Micro.Useless++
					if m.obs != nil {
						m.obs.Emit(obs.KindDeliveryUseless, uint64(termID), rec.Seq, e.Ready)
					}
				}
			}
		}
	}

	if !handled {
		if next != rec.NextPC {
			m.res.Mispredicts++
			m.redirect(resolve)
			if cfg.Mode == ModeMicrothread && cfg.WrongPathSpawns {
				m.wrongPathSpawns(next, rec.Seq+1, fc)
			}
		}
	}
	return hwMiss
}

// retireSide models the back-end structures fed by the retirement stream:
// value/address predictor training, the PRB, the Path Cache with its
// promotion/demotion logic, and the Microthread Builder.
func (m *Machine) retireSide(rec *emu.Record, retC uint64, termID path.ID, hwMiss bool) {
	cfg := &m.cfg
	in := rec.Inst

	usesMicro := cfg.Mode == ModeMicrothread || cfg.Mode == ModePerfectPromoted
	if !usesMicro {
		return
	}

	// Train the value/address predictors, then snapshot confidence into
	// the PRB entry (Section 4.2.5). Both exist only to feed the
	// Microthread Builder, which ModePerfectPromoted never invokes, so
	// that mode skips the whole retirement side channel. Only pruning
	// reads the trained tables (the builder's confidence tests and the
	// Vp_Inst/Ap_Inst queries), so runs without it skip the training.
	if cfg.Mode == ModeMicrothread {
		var vconf, aconf bool
		if cfg.Pruning {
			if _, ok := in.Writes(); ok {
				vconf = m.vp.TrainConfident(rec.PC, rec.DstVal)
			}
			if in.IsLoad() {
				aconf = m.ap.TrainConfident(rec.PC, rec.SrcVal[0])
			}
		}
		m.prb.Push(rec, vconf, aconf)
	}

	if !in.IsTerminatingBranch() || !m.tracker.Full() {
		return
	}

	m.updateThrottle()

	// The H2P gate filter trains on the same terminating-branch stream
	// the Path Cache observes, so a promotion decision below sees a
	// difficulty estimate that includes this outcome (matching the Path
	// Cache's own training order).
	if m.h2pGate != nil {
		m.h2pGate.Observe(rec.PC, hwMiss)
	}

	// Profile-guided promotions bypass the Path Cache's difficulty
	// training entirely. Scope is computed here, not in execute: the
	// tracker has not Observed this branch yet, so the value is the same,
	// and the build paths are the only consumers.
	if _, ok := m.prePromoted[termID]; ok {
		if cfg.Mode == ModeMicrothread && m.uram.Lookup(termID) == nil {
			m.buildRoutine(rec, retC, termID, m.tracker.Scope(rec.PC), false)
		}
		return
	}

	ev := m.pathCache.Observe(termID, hwMiss)
	switch {
	case ev.Demote:
		if cfg.Mode == ModePerfectPromoted {
			delete(m.promoted, termID)
		} else {
			m.uram.Remove(termID)
		}
	case ev.Promote:
		// The H2P spawn gate second-guesses the Path Cache: a path whose
		// terminating branch the filter does not currently classify
		// hard-to-predict is rejected, keeping MicroRAM and microcontext
		// capacity for the branches concentrating mispredictions.
		if m.h2pGate != nil && !m.h2pGate.IsH2P(rec.PC) {
			m.res.Micro.H2PGateSkips++
			m.pathCache.SetPromoted(termID, false)
			return
		}
		if cfg.Mode == ModePerfectPromoted {
			if len(m.promoted) < cfg.MicroRAMEntries {
				m.promoted[termID] = struct{}{}
				m.pathCache.SetPromoted(termID, true)
			} else {
				m.pathCache.SetPromoted(termID, false)
			}
			return
		}
		m.buildRoutine(rec, retC, termID, m.tracker.Scope(rec.PC), false)
	default:
		if cfg.Mode == ModeMicrothread && m.uram.NeedsRebuild(termID) {
			m.buildRoutine(rec, retC, termID, m.tracker.Scope(rec.PC), true)
		}
	}
}

// updateThrottle advances the spawn-throttle feedback loop (future-work
// extension): at the end of each window of retired terminating branches,
// spawning is suspended for the next window when the yield — fixed
// mispredictions per spawn — fell below the configured floor, and resumed
// (to re-probe) after each suspended window.
func (m *Machine) updateThrottle() {
	if !m.cfg.Throttle {
		return
	}
	m.windowBranches++
	if m.windowBranches < m.cfg.ThrottleWindow {
		return
	}
	if m.throttled {
		m.throttled = false // probe again next window
	} else if m.windowSpawns >= 64 {
		yield := float64(m.windowFixes) / float64(m.windowSpawns)
		if yield < m.cfg.ThrottleMinYield {
			m.throttled = true
			m.res.Micro.ThrottledWindows++
		}
	}
	m.windowBranches = 0
	m.windowFixes = 0
	m.windowSpawns = 0
}

// buildRoutine runs the Microthread Builder for the path that just
// retired its terminating branch. The builder constructs one routine at a
// time with a fixed latency; if it is busy the promotion request is
// declined and will fire again on the path's next occurrence.
func (m *Machine) buildRoutine(rec *emu.Record, retC uint64, id path.ID, scope int, rebuild bool) {
	if m.builderFreeAt > retC {
		if !rebuild {
			m.pathCache.SetPromoted(id, false)
		}
		return
	}
	// Snapshot the path's taken-branch history (the terminating branch
	// has not been Observed yet at this point).
	r := m.builder.Build(m.prb, rec.Seq, id, scope, m.tracker.Branches())
	if r != nil {
		// The routine cannot spawn before construction finishes, in
		// this context or in any other sharing the MicroRAM.
		r.ReadyAt = retC + uint64(m.cfg.BuildLatency)
		if m.cfg.OnBuild != nil {
			m.cfg.OnBuild(r)
		}
	}
	if r == nil || !m.uram.Install(r) {
		if !rebuild {
			m.pathCache.SetPromoted(id, false)
		}
		return
	}
	m.builderFreeAt = r.ReadyAt
	if rebuild {
		m.res.Micro.Rebuilds++
	} else {
		m.pathCache.SetPromoted(id, true)
	}
}
