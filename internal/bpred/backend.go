package bpred

import (
	"fmt"

	"dpbp/internal/bpred/h2p"
	"dpbp/internal/bpred/tage"
	"dpbp/internal/isa"
)

// Backend is a conditional-branch direction predictor. The machine
// calls Predict at fetch and Update with the resolved outcome, paired
// one-to-one per conditional branch in fetch order with no backend
// state change in between; Update may therefore re-derive the
// prediction to classify its own outcome. Snapshot copies the backend's
// counters into the section of BackendStats it owns, leaving the other
// sections untouched.
type Backend interface {
	Predict(pc isa.Addr) bool
	Update(pc isa.Addr, taken bool)
	Reset()
	Snapshot(*BackendStats)
}

// Backend names. The zero Spec canonicalizes to
// BackendHybrid, the paper's Table 3 gshare/PAs hybrid.
const (
	BackendHybrid = "hybrid"
	BackendTAGE   = "tage"
	BackendH2P    = "h2p"
)

// Spec selects and sizes a direction-predictor backend. It is part of
// cpu.Config, so it must stay comparable (the machine pool diffs specs
// to decide between Reset and reconstruction) and canonicalizable (the
// run cache keys on the canonical form). Name chooses the backend;
// the sizing sections are always canonicalized, even for backends that
// ignore them, because the H2P section also drives the microthread
// spawn gate under any backend.
type Spec struct {
	// Name is a backend name; empty means BackendHybrid.
	Name string `json:"name,omitempty"`
	// TAGE sizes the tage backend (used when Name == "tage").
	TAGE tage.Config `json:"tage,omitempty"`
	// H2P sizes the h2p side predictor (used when Name == "h2p") and
	// the H2P spawn-gate filter (used whenever cpu enables the gate).
	H2P h2p.Config `json:"h2p,omitempty"`
}

// Canonical fills the zero value with defaults: an empty Name becomes
// BackendHybrid and both sizing sections are canonicalized. Idempotent,
// so canonical Specs compare equal iff they describe the same backend.
func (s Spec) Canonical() Spec {
	if s.Name == "" {
		s.Name = BackendHybrid
	}
	s.TAGE = s.TAGE.Canonical()
	s.H2P = s.H2P.Canonical()
	return s
}

// BackendStats is the union of per-backend counters; Snapshot fills the
// section for the live backend and leaves the others zero. A union
// (rather than an interface) keeps results comparable, JSON-stable, and
// walkable by the obs metrics registry.
type BackendStats struct {
	Hybrid HybridStats `json:"hybrid"`
	TAGE   tage.Stats  `json:"tage"`
	H2P    h2p.Stats   `json:"h2p"`
}

// HybridStats counts the hybrid backend's component selection. The
// hybrid predates the Backend interface; its counters live in the
// adapter so the underlying Hybrid's state evolution stays bit-
// identical to the predictor before backends were pluggable.
type HybridStats struct {
	Lookups uint64 `json:"lookups"`
	Updates uint64 `json:"updates"`
	// GshareSelected/PAsSelected count which component the selector
	// chose at update; they sum to Updates.
	GshareSelected uint64 `json:"gshare_selected"`
	PAsSelected    uint64 `json:"pas_selected"`
	// Disagreements counts updates where the components differed (the
	// only case that trains the selector).
	Disagreements uint64 `json:"disagreements"`
	// Correct counts updates whose final prediction matched the outcome.
	Correct uint64 `json:"correct"`
}

// Backends returns the backend names, sorted.
func Backends() []string { return []string{BackendH2P, BackendHybrid, BackendTAGE} }

// NewBackend builds the backend spec selects. The spec and config are
// canonicalized first, so zero values yield the default hybrid.
func NewBackend(spec Spec, cfg Config) (Backend, error) {
	spec = spec.Canonical()
	cfg = cfg.Canonical()
	switch spec.Name {
	case BackendHybrid:
		return &hybridBackend{h: NewHybrid(cfg.PHTEntries, cfg.SelectorEntries)}, nil
	case BackendTAGE:
		return &tageBackend{t: tage.New(spec.TAGE)}, nil
	case BackendH2P:
		return &h2pBackend{p: h2p.New(spec.H2P, NewHybrid(cfg.PHTEntries, cfg.SelectorEntries))}, nil
	}
	return nil, fmt.Errorf("bpred: unknown backend %q (have %v)", spec.Name, Backends())
}

// hybridBackend adapts the gshare/PAs Hybrid to the Backend interface.
// All counters live here: the wrapped Hybrid's state evolution is the
// pure pre-backend sequence (Predict reads, Update trains), keeping
// default-backend runs byte-identical.
type hybridBackend struct {
	h     *Hybrid
	stats HybridStats
}

func (b *hybridBackend) Predict(pc isa.Addr) bool {
	b.stats.Lookups++
	return b.h.Predict(pc)
}

func (b *hybridBackend) Update(pc isa.Addr, taken bool) {
	b.stats.Updates++
	// Re-read the components (pure) to classify before training.
	gp := b.h.G.Predict(pc)
	pp := b.h.P.Predict(pc)
	var pred bool
	if b.h.selector[uint64(pc)&b.h.selMask].taken() {
		b.stats.GshareSelected++
		pred = gp
	} else {
		b.stats.PAsSelected++
		pred = pp
	}
	if gp != pp {
		b.stats.Disagreements++
	}
	if pred == taken {
		b.stats.Correct++
	}
	b.h.Update(pc, taken)
}

func (b *hybridBackend) Reset() {
	b.h.Reset()
	b.stats = HybridStats{}
}

func (b *hybridBackend) Snapshot(s *BackendStats) { s.Hybrid = b.stats }

// tageBackend adapts the tage predictor (which keeps its own Stats).
type tageBackend struct {
	t *tage.Predictor
}

func (b *tageBackend) Predict(pc isa.Addr) bool       { return b.t.Predict(pc) }
func (b *tageBackend) Update(pc isa.Addr, taken bool) { b.t.Update(pc, taken) }
func (b *tageBackend) Reset()                         { b.t.Reset() }
func (b *tageBackend) Snapshot(s *BackendStats)       { s.TAGE = b.t.Stats }

// h2pBackend adapts the h2p side predictor wrapping a Hybrid base
// (Hybrid.Predict is pure, satisfying the h2p.Base contract).
type h2pBackend struct {
	p *h2p.Predictor
}

func (b *h2pBackend) Predict(pc isa.Addr) bool       { return b.p.Predict(pc) }
func (b *h2pBackend) Update(pc isa.Addr, taken bool) { b.p.Update(pc, taken) }
func (b *h2pBackend) Reset()                         { b.p.Reset() }
func (b *h2pBackend) Snapshot(s *BackendStats)       { s.H2P = b.p.Stats }
