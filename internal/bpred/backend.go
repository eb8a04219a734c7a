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
// prediction to classify its own outcome. Each backend counts its own
// statistics, which Predictor.BackendStats reports.
type Backend interface {
	Predict(pc isa.Addr) bool
	Update(pc isa.Addr, taken bool)
	Reset()
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

// BackendStats is the union of per-backend counters;
// Predictor.BackendStats fills the section for the live backend and
// leaves the others zero. A union (rather than an interface) keeps
// results comparable, JSON-stable, and walkable by the obs metrics
// registry.
type BackendStats struct {
	Hybrid HybridStats `json:"hybrid"`
	TAGE   tage.Stats  `json:"tage"`
	H2P    h2p.Stats   `json:"h2p"`
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
		return NewHybrid(cfg.PHTEntries, cfg.SelectorEntries), nil
	case BackendTAGE:
		return tage.New(spec.TAGE), nil
	case BackendH2P:
		return h2p.New(spec.H2P, NewHybrid(cfg.PHTEntries, cfg.SelectorEntries)), nil
	}
	return nil, fmt.Errorf("bpred: unknown backend %q (have %v)", spec.Name, Backends())
}
