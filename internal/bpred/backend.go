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

// Backend names. A run names its backend with one of these strings; an
// empty cpu.Config.BPred means BackendHybrid, the paper's Table 3
// gshare/PAs hybrid.
const (
	BackendHybrid = "hybrid"
	BackendTAGE   = "tage"
	BackendH2P    = "h2p"
)

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

// NewBackend builds the named backend. The hybrid (alone or under the
// h2p side predictor) is sized by cfg; tage and the h2p side structures
// take their packages' DefaultConfig.
func NewBackend(name string, cfg Config) (Backend, error) {
	switch name {
	case BackendHybrid:
		return NewHybrid(cfg.PHTEntries, cfg.SelectorEntries), nil
	case BackendTAGE:
		return tage.New(tage.DefaultConfig()), nil
	case BackendH2P:
		return h2p.New(h2p.DefaultConfig(), NewHybrid(cfg.PHTEntries, cfg.SelectorEntries)), nil
	}
	return nil, fmt.Errorf("bpred: unknown backend %q (have %v)", name, Backends())
}
