package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Collector aggregates the tracers of a multi-run sweep into one trace.
// StartRun is safe for concurrent use (the experiment harness fans
// benchmarks out in parallel); each returned Tracer is then owned by a
// single timing run. Run order in the exported trace is StartRun order.
type Collector struct {
	mu   sync.Mutex
	runs []RunTrace
}

// RunTrace is one named run's tracer.
type RunTrace struct {
	// Name labels the run in trace viewers: a benchmark and the variant
	// its experiment names ("gcc/abort off"), or an SMT mix and its
	// sharing ("gcc+ijpeg/private").
	Name   string
	Tracer *Tracer
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// StartRun registers and returns a fresh tracer for one named run.
func (c *Collector) StartRun(name string) *Tracer {
	t := NewTracer()
	c.mu.Lock()
	c.runs = append(c.runs, RunTrace{Name: name, Tracer: t})
	c.mu.Unlock()
	return t
}

// Runs returns a snapshot of the registered runs. The tracers must be
// quiescent (their runs finished) before their contents are read.
func (c *Collector) Runs() []RunTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RunTrace, len(c.runs))
	copy(out, c.runs)
	return out
}

// AddTo accumulates every run's counters and histograms into reg.
func (c *Collector) AddTo(reg *Registry) {
	for _, r := range c.Runs() {
		r.Tracer.AddTo(reg)
	}
}

// WriteChromeTrace exports every collected run as one Chrome
// trace-event JSON document; see the package-level WriteChromeTrace.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, c.Runs())
}

// chromeEvent is one record of the Chrome trace-event format
// (the "JSON Array Format" with a traceEvents wrapper), which Perfetto
// and chrome://tracing both load. Instant events carry ph "i" with a
// thread scope; counter events carry ph "C"; metadata events ("M") name
// the per-run process tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the runs as one Chrome trace-event JSON
// document keyed by fetch cycle (1 cycle = 1 trace microsecond). Each
// run becomes its own process (pid = run index + 1) named by a metadata
// event; lifecycle events are instants on thread 0, and occupancy
// samples become three counter tracks (active microcontexts, window
// occupancy, fetch-slot usage). The document streams: events are
// encoded one at a time, so trace size is bounded by the tracers'
// limits, not by an in-memory copy of the JSON.
func WriteChromeTrace(w io.Writer, runs []RunTrace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	for i, run := range runs {
		pid := i + 1
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": run.Name},
		}); err != nil {
			return err
		}
		t := run.Tracer
		if t == nil {
			continue
		}
		if d := t.Dropped(); d > 0 {
			// Truncation is never silent: a metadata event records how
			// many events the buffer limit discarded.
			if err := emit(chromeEvent{
				Name: "trace_truncated", Ph: "M", PID: pid,
				Args: map[string]any{"dropped": d},
			}); err != nil {
				return err
			}
		}
		for _, ev := range t.Events() {
			// Each primary context is its own thread track, so SMT runs
			// render one lane per primary; single-thread runs stay on
			// thread 0 exactly as before.
			if err := emit(chromeEvent{
				Name: ev.Kind.String(),
				Cat:  ev.Kind.Category(),
				Ph:   "i",
				TS:   ev.Cycle,
				PID:  pid,
				TID:  int(ev.Ctx),
				S:    "t",
				Args: map[string]any{
					"path": fmt.Sprintf("%#x", ev.Path),
					"seq":  ev.Seq,
					"arg":  ev.Arg,
					"ctx":  ev.Ctx,
				},
			}); err != nil {
				return err
			}
		}
		for _, s := range t.Samples() {
			if err := emit(chromeEvent{
				Name: "occupancy", Ph: "C", TS: s.Cycle, PID: pid,
				Args: map[string]any{
					"uctx_active": s.ActiveCtxs,
					"window":      s.WindowOcc,
					"fetch_slots": s.FetchSlots,
				},
			}); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
