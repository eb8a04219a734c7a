package main

import "time"

// span is one timed call into a layer. The benchmark opens it just
// before it calls the layer's public function and closes it when the call
// returns, so spans see layers from outside. Parent indexes the enclosing
// span of the same repetition (-1 for a root); Insts and Branches count
// the work the call did, so per-unit costs are measured where the work
// happens.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Parent   int     `json:"parent"`
	Insts    uint64  `json:"insts,omitempty"`
	Branches uint64  `json:"branches,omitempty"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps one repetition's spans in memory. A nil *tracer records
// nothing: untraced repetitions pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Seconds(), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one, recording
// the work the call did.
func (t *tracer) end(id int, insts, branches uint64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Seconds()
	s.Insts, s.Branches = insts, branches
	t.open = t.open[:len(t.open)-1]
}

// total sums the duration and work of every span with the given name.
func (t *tracer) total(name string) (secs float64, insts, branches uint64) {
	for _, s := range t.spans {
		if s.Name == name {
			secs += s.seconds()
			insts += s.Insts
			branches += s.Branches
		}
	}
	return secs, insts, branches
}

// nsPerInst returns the named spans' time per simulated instruction, in
// ns.
func (t *tracer) nsPerInst(name string) float64 {
	secs, insts, _ := t.total(name)
	return ratio(secs*1e9, float64(insts))
}

// meanMs returns the named spans' mean duration, in ms.
func (t *tracer) meanMs(name string) float64 {
	secs, n := 0.0, 0
	for _, s := range t.spans {
		if s.Name == name {
			secs += s.seconds()
			n++
		}
	}
	return ratio(secs*1e3, float64(n))
}

// unattributed returns the share of the named root span that none of
// its child spans covers: time the ledger cannot assign to a layer.
// Children of one root run one after another, so their durations add.
func (t *tracer) unattributed(root string) float64 {
	for id, s := range t.spans {
		if s.Name != root {
			continue
		}
		covered := 0.0
		for _, c := range t.spans {
			if c.Parent == id {
				covered += c.seconds()
			}
		}
		return ratio(s.seconds()-covered, s.seconds())
	}
	return 0
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
