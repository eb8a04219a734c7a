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
	"context"
	"fmt"
	"math"
	"sort"

	"dpbp/internal/bpred"
	"dpbp/internal/emu"
	"dpbp/internal/path"
	"dpbp/internal/program"
)

// pathEntry counts one unique path in 16 bytes. Every counted path has
// occurred at least once, so an entry whose occurrences is 0 is an empty
// slot of the run's path table. A path occurs at most once per
// terminating branch, and a run executes at most MaxProfileInsts of
// those, so neither counter can wrap.
type pathEntry struct {
	id          path.ID
	occurrences uint32
	mispredicts uint32
}

// mispredicted reports whether the path's terminating branch ever
// mispredicted: whether any threshold T >= 0 can call the path difficult.
func (e pathEntry) mispredicted() bool { return e.mispredicts > 0 }

// branchStats aggregates one static branch.
type branchStats struct {
	executions  uint64
	mispredicts uint64
}

func (b branchStats) executed() bool { return b.executions > 0 }

// NProfile holds per-n aggregates.
type NProfile struct {
	N int
	// unique is the number of unique paths the run counted.
	unique int
	// paths holds one entry per unique path that mispredicted at least
	// once, in table slot order. A path that never mispredicted is
	// difficult at no threshold T >= 0, so it survives only in unique and
	// scopeSum.
	paths []pathEntry
	// scopeSum is the sum of every unique path's scope, which is fixed
	// per path and recorded on its first occurrence.
	scopeSum uint64
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
	// branches holds one entry per static terminating branch executed,
	// in address order.
	branches []branchStats
}

// MaxProfileInsts is the largest instruction budget a profiling run
// takes: the bound that keeps every path's counters exact in 32 bits.
const MaxProfileInsts uint64 = math.MaxUint32

// Config controls a profiling run.
type Config struct {
	// Ns lists the path lengths to classify simultaneously
	// (the paper uses 4, 10, 16).
	Ns []int
	// MaxInsts bounds the functional run; it may not exceed
	// MaxProfileInsts.
	MaxInsts uint64
}

// DefaultConfig profiles n = 4, 10, 16 over 2M instructions.
func DefaultConfig() Config {
	return Config{Ns: []int{4, 10, 16}, MaxInsts: 2_000_000}
}

// Canonical returns the configuration with every zero field replaced by
// its default — the configuration Run actually uses. Configs that
// canonicalize equal produce identical profiles, so Canonical is the
// run-cache key input for profiling runs.
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

// Validate returns the error RunContext returns for cfg before it runs:
// a path length below 1, or a MaxInsts above MaxProfileInsts. It
// validates the canonical configuration, so zero fields pass.
func (c Config) Validate() error {
	c = c.Canonical()
	for _, n := range c.Ns {
		if n < 1 {
			return fmt.Errorf("pathprof: path length %d is below 1", n)
		}
	}
	if c.MaxInsts > MaxProfileInsts {
		return fmt.Errorf("pathprof: instruction budget %d exceeds MaxProfileInsts (%d), the most that 32-bit path counters count exactly",
			c.MaxInsts, MaxProfileInsts)
	}
	return nil
}

// Run profiles prog under cfg, simulating the Table 3 baseline predictor
// against a fresh functional run. It panics with Validate's error on a
// config that Validate refuses.
func Run(prog *program.Program, cfg Config) *Profile {
	p, err := RunContext(context.Background(), prog, cfg) // Background is never cancelled
	if err != nil {
		panic(err)
	}
	return p
}

// ctxCheckInterval is how many instructions pass between context polls,
// as in the timing core: often enough that cancellation lands within
// microseconds, rarely enough to vanish in the run's cost.
const ctxCheckInterval = 4096

// RunContext is Run that returns an error instead of panicking. It
// returns Validate's error before it allocates anything, and it stops
// when ctx ends: it polls ctx before the first instruction and every
// ctxCheckInterval instructions after, and returns no profile and the
// context's error once ctx has ended.
func RunContext(ctx context.Context, prog *program.Program, cfg Config) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Canonical()
	p := &Profile{Benchmark: prog.Name}
	branches := make([]branchStats, len(prog.Code)) // indexed by PC
	tables := make([]pathTable, len(cfg.Ns))
	trackers := make([]*path.Tracker, len(cfg.Ns))
	for i, n := range cfg.Ns {
		p.ByN = append(p.ByN, &NProfile{N: n})
		tables[i].slots = make([]pathEntry, pathTableMinCap)
		trackers[i] = path.NewTracker(n)
	}
	pred := bpred.New(bpred.DefaultConfig())
	em := emu.New(prog)
	var r emu.Record
	for p.Insts < cfg.MaxInsts {
		if p.Insts%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !em.Step(&r) {
			break
		}
		p.Insts++
		if !r.Inst.IsBranch() {
			continue
		}
		_, miss := pred.Resolve(r.PC, r.Inst, r.Taken, r.NextPC)
		if r.Inst.IsTerminatingBranch() {
			var m uint64
			if miss {
				m = 1
			}
			p.Branches++
			p.Mispredicts += m
			bs := &branches[r.PC]
			bs.executions++
			bs.mispredicts += m
			for i, tr := range trackers {
				if tr.Full() && tables[i].add(tr.ID(r.PC), uint32(m)) {
					p.ByN[i].scopeSum += uint64(tr.Scope(r.PC))
				}
			}
		}
		if r.Taken {
			for _, tr := range trackers {
				tr.Observe(path.TakenBranch{PC: r.PC, Target: r.NextPC, Seq: r.Seq})
			}
		}
	}
	for i, np := range p.ByN {
		np.unique = tables[i].live
		np.paths = compact(tables[i].slots, pathEntry.mispredicted)
	}
	p.branches = compact(branches, branchStats.executed)
	return p, nil
}

// pathTableMinCap is a path table's initial slot count. It must be a
// power of two; growth doubles it.
const pathTableMinCap = 1 << 10

// pathTable counts one path length's paths during a run. It is an
// insert-only open-addressed table of inline entries, probed linearly
// and doubled before it passes 3/4 full. It counts every path, because a
// path that has not mispredicted yet may mispredict later, and its rate
// then needs every occurrence from its first. Run copies out the entries
// that mispredicted when the run ends, so a profile never keeps a sparse
// table.
type pathTable struct {
	slots []pathEntry // power-of-two length
	live  int
}

// home returns the preferred slot of id. path.IDs are already shift-XOR
// hashes, but the Fibonacci multiply spreads their low bits for the mask.
func (t *pathTable) home(id path.ID) uint64 {
	return (uint64(id) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(t.slots)-1)
}

// add counts one occurrence of id, mispredicted when miss is 1, and
// reports whether id is new.
func (t *pathTable) add(id path.ID, miss uint32) bool {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(id); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.occurrences == 0 {
			if (t.live+1)*4 > len(t.slots)*3 {
				t.grow()
				return t.add(id, miss)
			}
			*e = pathEntry{id: id, occurrences: 1, mispredicts: miss}
			t.live++
			return true
		}
		if e.id == id {
			e.occurrences++
			e.mispredicts += miss
			return false
		}
	}
}

// grow rehashes the live entries into a table twice the size.
func (t *pathTable) grow() {
	old := t.slots
	t.slots = make([]pathEntry, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, e := range old {
		if e.occurrences == 0 {
			continue
		}
		i := t.home(e.id)
		for t.slots[i].occurrences != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// compact returns the elements of s that keep reports true for, in
// order, in a slice of exactly that length and capacity.
func compact[T any](s []T, keep func(T) bool) []T {
	n := 0
	for _, x := range s {
		if keep(x) {
			n++
		}
	}
	out := make([]T, 0, n)
	for _, x := range s {
		if keep(x) {
			out = append(out, x)
		}
	}
	return out
}

// Table1Row is one benchmark's slice of Table 1 for a single n.
type Table1Row struct {
	N           int
	UniquePaths int
	AvgScope    float64
	DifficultAt map[float64]int // threshold T -> number of difficult paths
}

// Table1 computes unique-path counts, average scope, and difficult-path
// counts at each threshold. It panics on a threshold below 0 (see
// checkThreshold).
func (p *Profile) Table1(thresholds []float64) []Table1Row {
	for _, T := range thresholds {
		checkThreshold(T)
	}
	rows := make([]Table1Row, 0, len(p.ByN))
	for _, np := range p.ByN {
		row := Table1Row{N: np.N, UniquePaths: np.unique, DifficultAt: map[float64]int{}}
		for _, e := range np.paths {
			for _, T := range thresholds {
				if difficult(uint64(e.mispredicts), uint64(e.occurrences), T) {
					row.DifficultAt[T]++
				}
			}
		}
		if np.unique > 0 {
			row.AvgScope = float64(np.scopeSum) / float64(np.unique)
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
// and difficult paths at each threshold. It panics on a threshold below 0
// (see checkThreshold).
func (p *Profile) Table2(thresholds []float64) []Table2Row {
	rows := make([]Table2Row, 0, len(thresholds))
	for _, T := range thresholds {
		checkThreshold(T)
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
			for _, e := range np.paths {
				if difficult(uint64(e.mispredicts), uint64(e.occurrences), T) {
					miss += uint64(e.mispredicts)
					exe += uint64(e.occurrences)
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
// of discovering them through Path Cache training. It panics on a
// threshold below 0 (see checkThreshold).
func (p *Profile) DifficultPathIDs(n int, T float64, limit int) []uint64 {
	checkThreshold(T)
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
		miss uint32
	}
	var all []scored
	for _, e := range np.paths {
		if difficult(uint64(e.mispredicts), uint64(e.occurrences), T) {
			all = append(all, scored{e.id, e.mispredicts})
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

// checkThreshold panics on a threshold below 0. A profile keeps only the
// paths that mispredicted, and a path that never did has rate 0, which is
// above no T >= 0; only a negative T would call it difficult.
func checkThreshold(T float64) {
	if T < 0 {
		panic(fmt.Sprintf("pathprof: threshold %v is below 0, and a profile keeps no path that never mispredicted", T))
	}
}

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
