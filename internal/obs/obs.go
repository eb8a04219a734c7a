// Package obs is the simulator's observability layer: a structured
// record of microthread lifecycle events (spawn attempts, Path_History
// screens, aborts, deliveries, Path Cache and Prediction Cache activity)
// plus periodic pipeline-occupancy samples, collected per timing run and
// exportable as a Chrome trace-event (Perfetto-loadable) JSON file.
//
// The layer follows the nil-hook pattern: a disabled tracer is a nil
// *Tracer, and every emit site in the timing core is a direct
// `if m.obs != nil { m.obs.Emit(...) }` on the concrete type — no
// interface dispatch, no allocation, and nothing but a pointer compare
// on the hot path when tracing is off. The simulation never reads the
// tracer, so enabling it cannot perturb results (the determinism tests
// hold either way).
//
// Every Emit both appends an Event and bumps a per-Kind counter; the
// event buffer is bounded (Dropped counts truncation) but the counters
// are not, so per-kind counts always reconcile exactly with the
// simulator's aggregate Stats structs — each emit site sits next to the
// counter it mirrors, and TestTracerReconcilesWithStats in internal/oracle
// pins the correspondence.
package obs

// Kind identifies one lifecycle event type.
type Kind uint8

// Event kinds, grouped by subsystem. The order is stable: it is the
// export order of trace categories and registry counter names.
const (
	// Spawning (internal/cpu, trySpawns/spawn).
	KindSpawnAttempt       Kind = iota // a routine's spawn point was fetched
	KindSpawnDropPrefix                // Path_History screen rejected the instance
	KindSpawnDropNoContext             // all of this thread's microcontexts busy
	KindSpawnDropCoRunner              // SMT co-runners hold the shared budget
	KindSpawn                          // microcontext allocated, routine injected
	// Active microcontexts (internal/cpu, monitorContexts/abortContext).
	KindAbortActive     // Path_History abort after allocation
	KindComplete        // primary thread reached the target branch
	KindMemDepViolation // primary store hit a microthread-loaded address
	// Prediction delivery (internal/cpu, handleBranch).
	KindDeliveryEarly   // prediction ready before fetch; steered the front end
	KindDeliveryLate    // prediction arrived between fetch and resolve
	KindDeliveryUseless // prediction arrived after resolution
	// Prediction Cache (internal/cpu, spawn).
	KindPCacheWrite // microthread wrote a prediction
	// Path Cache (internal/pathcache).
	KindPathAlloc           // entry allocated into an invalid way
	KindPathReplace         // entry allocated by evicting a victim
	KindPathPromote         // Promoted bit set (builder accepted)
	KindPathDemote          // Promoted bit cleared (training or rejection)
	KindPathPromoteRejected // builder declined a promotion request

	// NumKinds bounds the Kind space; it is not itself a kind.
	NumKinds
)

// kindNames is indexed by Kind; names are stable identifiers used in
// trace output and registry counters.
var kindNames = [NumKinds]string{
	KindSpawnAttempt:        "spawn_attempt",
	KindSpawnDropPrefix:     "spawn_drop_prefix",
	KindSpawnDropNoContext:  "spawn_drop_no_context",
	KindSpawnDropCoRunner:   "spawn_drop_co_runner",
	KindSpawn:               "spawn",
	KindAbortActive:         "abort_active",
	KindComplete:            "complete",
	KindMemDepViolation:     "memdep_violation",
	KindDeliveryEarly:       "delivery_early",
	KindDeliveryLate:        "delivery_late",
	KindDeliveryUseless:     "delivery_useless",
	KindPCacheWrite:         "pcache_write",
	KindPathAlloc:           "pathcache_alloc",
	KindPathReplace:         "pathcache_replace",
	KindPathPromote:         "pathcache_promote",
	KindPathDemote:          "pathcache_demote",
	KindPathPromoteRejected: "pathcache_promote_rejected",
}

// String returns the event kind's stable name.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Category groups kinds for trace viewers: "spawn", "uctx", "delivery",
// "pcache", or "pathcache".
func (k Kind) Category() string {
	switch {
	case k <= KindSpawn:
		return "spawn"
	case k <= KindMemDepViolation:
		return "uctx"
	case k <= KindDeliveryUseless:
		return "delivery"
	case k == KindPCacheWrite:
		return "pcache"
	default:
		return "pathcache"
	}
}

// Event is one recorded lifecycle event. The meaning of Path, Seq, and
// Arg depends on Kind; unused fields are zero. For spawn-side and
// delivery events Path is the routine's Path_Id and Seq the dynamic
// sequence number involved; Arg carries a kind-specific detail (the
// prediction's ready cycle for deliveries and Prediction Cache writes,
// the microcontext index for spawns and aborts). Ctx is the primary
// context the event belongs to — always 0 outside SMT runs, where it
// attributes every spawn and delivery to its primary thread.
type Event struct {
	Cycle uint64
	Path  uint64
	Seq   uint64
	Arg   uint64
	Kind  Kind
	Ctx   uint8
}

// Sample is one periodic pipeline-occupancy observation.
type Sample struct {
	// Cycle is the fetch cycle the sample was taken at.
	Cycle uint64
	// ActiveCtxs is the number of active microcontexts.
	ActiveCtxs int
	// WindowOcc approximates out-of-order window occupancy: how many of
	// the most recently fetched instructions had not yet retired.
	WindowOcc int
	// FetchSlots is how many fetch slots the current cycle had consumed
	// when the sample was taken.
	FetchSlots int
}

// DefaultEventLimit bounds a tracer's event buffer: beyond it, events
// are dropped (and counted in Dropped) while counters keep advancing.
const DefaultEventLimit = 1 << 20

// defaultSampleEvery is the default cycle interval between occupancy
// samples.
const defaultSampleEvery = 256

// Tracer records one timing run's lifecycle events. A nil *Tracer is a
// disabled tracer; emit sites guard with a nil check and never call
// through. A Tracer is not safe for concurrent use — each timing run
// owns its own (see Collector for the multi-run aggregation).
type Tracer struct {
	now     uint64
	ctx     uint8
	limit   int
	events  []Event
	dropped uint64
	counts  [NumKinds]uint64

	sampleEvery uint64
	samples     []Sample

	// slack histograms the delivery margin of consumed predictions:
	// for early deliveries, how many cycles before fetch the prediction
	// was ready; for late ones, how many cycles after.
	earlySlack Histogram
	lateSlack  Histogram
}

// NewTracer returns an enabled tracer with the default event limit and
// sampling interval.
func NewTracer() *Tracer {
	return &Tracer{limit: DefaultEventLimit, sampleEvery: defaultSampleEvery}
}

// SetLimit bounds the event buffer; n <= 0 means unbounded. Counters
// are never bounded.
func (t *Tracer) SetLimit(n int) { t.limit = n }

// SetSampleEvery sets the occupancy sampling interval in cycles;
// n == 0 restores the default.
func (t *Tracer) SetSampleEvery(n uint64) {
	if n == 0 {
		n = defaultSampleEvery
	}
	t.sampleEvery = n
}

// SetNow sets the cycle stamped onto subsequent Emit calls. The timing
// core calls it once per fetched instruction, which lets subsystems
// without a clock of their own (the Path Cache) emit correctly-stamped
// events.
func (t *Tracer) SetNow(cycle uint64) { t.now = cycle }

// Now returns the current event timestamp.
func (t *Tracer) Now() uint64 { return t.now }

// SetCtx sets the primary-context index stamped onto subsequent Emit
// calls. Single-thread runs leave it 0; an SMT run sets it each time the
// fetch arbiter hands the machine to a different primary thread, so
// every event a shared structure emits lands on the thread that caused
// it.
func (t *Tracer) SetCtx(ctx uint8) { t.ctx = ctx }

// Emit records an event at the current cycle (see SetNow).
func (t *Tracer) Emit(k Kind, path, seq, arg uint64) {
	t.EmitAt(t.now, k, path, seq, arg)
}

// EmitAt records an event at an explicit cycle.
func (t *Tracer) EmitAt(cycle uint64, k Kind, path, seq, arg uint64) {
	t.counts[k]++
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{Cycle: cycle, Path: path, Seq: seq, Arg: arg, Kind: k, Ctx: t.ctx})
}

// ShouldSample reports whether an occupancy sample is due at cycle.
func (t *Tracer) ShouldSample(cycle uint64) bool {
	if len(t.samples) == 0 {
		return true
	}
	return cycle-t.samples[len(t.samples)-1].Cycle >= t.sampleEvery
}

// AddSample appends an occupancy sample. Samples share the event
// buffer's limit.
func (t *Tracer) AddSample(s Sample) {
	if t.limit > 0 && len(t.samples) >= t.limit {
		t.dropped++
		return
	}
	t.samples = append(t.samples, s)
}

// ObserveEarlySlack records how many cycles before fetch an early
// prediction was ready.
func (t *Tracer) ObserveEarlySlack(cycles uint64) { t.earlySlack.Observe(cycles) }

// ObserveLateSlack records how many cycles after fetch a late
// prediction became ready.
func (t *Tracer) ObserveLateSlack(cycles uint64) { t.lateSlack.Observe(cycles) }

// Events returns the recorded events, in emission order. The slice is
// owned by the tracer; callers must not mutate it.
func (t *Tracer) Events() []Event { return t.events }

// Samples returns the recorded occupancy samples. The slice is owned by
// the tracer; callers must not mutate it.
func (t *Tracer) Samples() []Sample { return t.samples }

// Count returns the number of events of kind k emitted, including any
// dropped from the buffer.
func (t *Tracer) Count(k Kind) uint64 { return t.counts[k] }

// Dropped returns how many events and samples the buffer limit
// discarded.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// AddTo accumulates the tracer's per-kind counts and slack histograms
// into a registry under the "trace." prefix.
func (t *Tracer) AddTo(r *Registry) {
	for k := Kind(0); k < NumKinds; k++ {
		r.Add("trace."+k.String(), t.counts[k])
	}
	r.Add("trace.dropped", t.dropped)
	r.AddHistogram("trace.early_slack_cycles", &t.earlySlack)
	r.AddHistogram("trace.late_slack_cycles", &t.lateSlack)
}
