// Package pathprof is the offline path profiler behind Tables 1 and 2 of
// the paper: it runs a program functionally against the baseline hardware
// predictor, classifies every control-flow path and static branch by
// misprediction rate, and reports unique-path counts, average scopes,
// difficult-path counts, and misprediction/execution coverages.
//
// Unlike the run-time Path Cache, the profiler uses unbounded tables: the
// paper's Tables 1 and 2 characterise the workloads themselves, not the
// hardware's ability to track them.
package pathprof

import (
	"fmt"
	"sort"

	"dpbp/internal/bpred"
	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/path"
	"dpbp/internal/program"
)

// pathStats aggregates one unique path.
type pathStats struct {
	occurrences uint64
	mispredicts uint64
	scope       int // fixed per path; recorded on first occurrence
}

// branchStats aggregates one static branch.
type branchStats struct {
	executions  uint64
	mispredicts uint64
}

// NProfile holds per-n aggregates.
type NProfile struct {
	N     int
	paths map[path.ID]*pathStats
}

// Profile is the result of one profiling run.
type Profile struct {
	Benchmark string
	// Insts is the number of dynamic instructions profiled.
	Insts uint64
	// Branches is the number of dynamic terminating-branch executions.
	Branches uint64
	// Mispredicts is the number of those the baseline mispredicted.
	Mispredicts uint64
	// ByN holds the per-path aggregates for each requested path length.
	ByN []*NProfile
	// branches holds per-static-branch aggregates.
	branches map[isa.Addr]*branchStats
}

// Config controls a profiling run.
type Config struct {
	// Ns lists the path lengths to classify simultaneously
	// (the paper uses 4, 10, 16).
	Ns []int
	// MaxInsts bounds the functional run.
	MaxInsts uint64
}

// DefaultConfig profiles n = 4, 10, 16 over 2M instructions.
func DefaultConfig() Config {
	return Config{Ns: []int{4, 10, 16}, MaxInsts: 2_000_000}
}

// Canonical returns the configuration with every zero field replaced by
// its default — the configuration Run actually uses. Configs that
// canonicalize equal produce identical profiles, so Canonical is the
// content-addressed cache key input for profiling runs.
func (c Config) Canonical() Config {
	d := DefaultConfig()
	if len(c.Ns) == 0 {
		c.Ns = d.Ns
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = d.MaxInsts
	}
	return c
}

// Run profiles prog under cfg, simulating the Table 3 baseline predictor
// against a fresh functional run.
func Run(prog *program.Program, cfg Config) *Profile {
	cfg = cfg.Canonical()
	p := &Profile{
		Benchmark: prog.Name,
		branches:  make(map[isa.Addr]*branchStats),
	}
	trackers := make([]*path.Tracker, len(cfg.Ns))
	for i, n := range cfg.Ns {
		p.ByN = append(p.ByN, &NProfile{N: n, paths: make(map[path.ID]*pathStats)})
		trackers[i] = path.NewTracker(n)
	}
	pred := bpred.New(bpred.DefaultConfig())
	p.Insts = emu.New(prog).Run(cfg.MaxInsts, func(r *emu.Record) bool {
		if !r.Inst.IsBranch() {
			return true
		}
		miss := pred.Update(r.PC, r.Inst, pred.Predict(r.PC, r.Inst), r.Taken, r.NextPC)
		if r.Inst.IsTerminatingBranch() {
			p.Branches++
			if miss {
				p.Mispredicts++
			}
			bs := p.branches[r.PC]
			if bs == nil {
				bs = &branchStats{}
				p.branches[r.PC] = bs
			}
			bs.executions++
			if miss {
				bs.mispredicts++
			}
			for i, tr := range trackers {
				if !tr.Full() {
					continue
				}
				id := tr.ID(r.PC)
				ps := p.ByN[i].paths[id]
				if ps == nil {
					ps = &pathStats{scope: tr.Scope(r.PC)}
					p.ByN[i].paths[id] = ps
				}
				ps.occurrences++
				if miss {
					ps.mispredicts++
				}
			}
		}
		if r.Taken {
			for _, tr := range trackers {
				tr.Observe(path.TakenBranch{PC: r.PC, Target: r.NextPC, Seq: r.Seq})
			}
		}
		return true
	})
	return p
}

// Table1Row is one benchmark's slice of Table 1 for a single n.
type Table1Row struct {
	N           int
	UniquePaths int
	AvgScope    float64
	DifficultAt map[float64]int // threshold T -> number of difficult paths
}

// Table1 computes unique-path counts, average scope, and difficult-path
// counts at each threshold.
func (p *Profile) Table1(thresholds []float64) []Table1Row {
	rows := make([]Table1Row, 0, len(p.ByN))
	for _, np := range p.ByN {
		row := Table1Row{N: np.N, UniquePaths: len(np.paths), DifficultAt: map[float64]int{}}
		var scopeSum float64
		for _, ps := range np.paths {
			scopeSum += float64(ps.scope)
			for _, T := range thresholds {
				if difficult(ps.mispredicts, ps.occurrences, T) {
					row.DifficultAt[T]++
				}
			}
		}
		if len(np.paths) > 0 {
			row.AvgScope = scopeSum / float64(len(np.paths))
		}
		rows = append(rows, row)
	}
	return rows
}

// Coverage is a (misprediction %, execution %) pair for one classifier.
type Coverage struct {
	MisPct float64
	ExePct float64
}

// Table2Row is one benchmark's coverage at one threshold: difficult
// branches and difficult paths for each n.
type Table2Row struct {
	T      float64
	Branch Coverage
	ByN    map[int]Coverage
}

// Table2 computes misprediction/execution coverage for difficult branches
// and difficult paths at each threshold.
func (p *Profile) Table2(thresholds []float64) []Table2Row {
	rows := make([]Table2Row, 0, len(thresholds))
	for _, T := range thresholds {
		row := Table2Row{T: T, ByN: map[int]Coverage{}}

		var bMiss, bExe uint64
		for _, bs := range p.branches {
			if difficult(bs.mispredicts, bs.executions, T) {
				bMiss += bs.mispredicts
				bExe += bs.executions
			}
		}
		row.Branch = p.coverage(bMiss, bExe)

		for _, np := range p.ByN {
			var miss, exe uint64
			for _, ps := range np.paths {
				if difficult(ps.mispredicts, ps.occurrences, T) {
					miss += ps.mispredicts
					exe += ps.occurrences
				}
			}
			row.ByN[np.N] = p.coverage(miss, exe)
		}
		rows = append(rows, row)
	}
	return rows
}

func (p *Profile) coverage(miss, exe uint64) Coverage {
	c := Coverage{}
	if p.Mispredicts > 0 {
		c.MisPct = 100 * float64(miss) / float64(p.Mispredicts)
	}
	if p.Branches > 0 {
		c.ExePct = 100 * float64(exe) / float64(p.Branches)
	}
	return c
}

// DifficultPathIDs returns the Path_Ids of the difficult paths for path
// length n at threshold T, ordered by descending misprediction count and
// truncated to limit (0 means no limit). It feeds the profile-guided
// promotion mode: the timing machine can pre-promote these paths instead
// of discovering them through Path Cache training.
func (p *Profile) DifficultPathIDs(n int, T float64, limit int) []uint64 {
	var np *NProfile
	for _, cand := range p.ByN {
		if cand.N == n {
			np = cand
			break
		}
	}
	if np == nil {
		return nil
	}
	type scored struct {
		id   path.ID
		miss uint64
	}
	var all []scored
	for id, ps := range np.paths {
		if difficult(ps.mispredicts, ps.occurrences, T) {
			all = append(all, scored{id, ps.mispredicts})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].miss != all[j].miss {
			return all[i].miss > all[j].miss
		}
		return all[i].id < all[j].id // deterministic tiebreak
	})
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	out := make([]uint64, len(all))
	for i, s := range all {
		out[i] = uint64(s.id)
	}
	return out
}

// MispredictRate returns the baseline's terminating-branch misprediction
// rate for the run.
func (p *Profile) MispredictRate() float64 {
	if p.Branches == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Branches)
}

// UniqueBranches returns the number of static terminating branches
// executed.
func (p *Profile) UniqueBranches() int { return len(p.branches) }

// difficult implements the paper's definition: misprediction rate
// strictly greater than T. Paths must have been seen at least once.
func difficult(miss, occ uint64, T float64) bool {
	return occ > 0 && float64(miss)/float64(occ) > T
}

// String renders a compact summary.
func (p *Profile) String() string {
	return fmt.Sprintf("%s: %d insts, %d branches, %.2f%% mispredicted, %d static branches",
		p.Benchmark, p.Insts, p.Branches, 100*p.MispredictRate(), len(p.branches))
}
