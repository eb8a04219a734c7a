package pathprof

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"dpbp/internal/bpred"
	"dpbp/internal/emu"
	"dpbp/internal/isa"
	"dpbp/internal/path"
	"dpbp/internal/program"
	"dpbp/internal/synth"
)

func profileOf(t *testing.T, bench string, maxInsts uint64) *Profile {
	t.Helper()
	p, err := synth.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = maxInsts
	return Run(synth.Generate(p), cfg)
}

func TestRunBasics(t *testing.T) {
	p := profileOf(t, "comp", 300_000)
	if p.Insts == 0 || p.Branches == 0 {
		t.Fatalf("empty profile: %+v", p)
	}
	if p.Mispredicts == 0 {
		t.Fatal("baseline predicted everything; workload has no hard branches")
	}
	rate := p.MispredictRate()
	if rate < 0.01 || rate > 0.40 {
		t.Errorf("misprediction rate %.3f implausible", rate)
	}
	if len(p.ByN) != 3 {
		t.Fatalf("expected 3 n-profiles, got %d", len(p.ByN))
	}
	if p.UniqueBranches() < 5 {
		t.Errorf("only %d static branches", p.UniqueBranches())
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func TestTable1Shapes(t *testing.T) {
	p := profileOf(t, "li", 300_000)
	rows := p.Table1([]float64{0.05, 0.10, 0.15})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Paper Table 1 shape: unique paths and average scope grow with n.
	for i := 1; i < len(rows); i++ {
		if rows[i].UniquePaths < rows[i-1].UniquePaths {
			t.Errorf("unique paths decreased with n: %d -> %d",
				rows[i-1].UniquePaths, rows[i].UniquePaths)
		}
		if rows[i].AvgScope < rows[i-1].AvgScope {
			t.Errorf("average scope decreased with n: %.1f -> %.1f",
				rows[i-1].AvgScope, rows[i].AvgScope)
		}
	}
	// Difficult paths decrease (weakly) as T rises.
	for _, r := range rows {
		if r.DifficultAt[0.05] < r.DifficultAt[0.10] || r.DifficultAt[0.10] < r.DifficultAt[0.15] {
			t.Errorf("difficult counts not monotone in T: %v", r.DifficultAt)
		}
		if r.DifficultAt[0.10] == 0 {
			t.Errorf("n=%d: no difficult paths at T=.10", r.N)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	p := profileOf(t, "go", 300_000)
	rows := p.Table2([]float64{0.05, 0.10, 0.15})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Coverages are percentages.
		check := func(c Coverage, what string) {
			if c.MisPct < 0 || c.MisPct > 100.0001 || c.ExePct < 0 || c.ExePct > 100.0001 {
				t.Errorf("T=%.2f %s coverage out of range: %+v", r.T, what, c)
			}
		}
		check(r.Branch, "branch")
		for n, c := range r.ByN {
			check(c, "path")
			_ = n
		}
		// The paper's headline: difficult paths cover a similar or larger
		// share of mispredictions than difficult branches, with lower
		// execution coverage, most visible at the largest n.
		c16 := r.ByN[16]
		if c16.MisPct < r.Branch.MisPct-20 {
			t.Errorf("T=%.2f: path mis coverage %.1f far below branch %.1f",
				r.T, c16.MisPct, r.Branch.MisPct)
		}
	}
	// Mis coverage shrinks as T rises (fewer difficult paths).
	if rows[0].ByN[10].MisPct < rows[2].ByN[10].MisPct {
		t.Errorf("mis coverage should not grow with T: %.1f at .05 vs %.1f at .15",
			rows[0].ByN[10].MisPct, rows[2].ByN[10].MisPct)
	}
}

func TestPathClassificationBeatsBranchOnPathMix(t *testing.T) {
	// The pathmix kernels make branches easy on one path and hard on
	// another. Per-path classification should therefore achieve lower
	// execution coverage than per-branch classification at equal or
	// similar misprediction coverage (paper Section 3.2.1).
	p := profileOf(t, "crafty_2k", 400_000)
	rows := p.Table2([]float64{0.10})
	r := rows[0]
	c := r.ByN[16]
	if c.ExePct > r.Branch.ExePct+10 {
		t.Errorf("path exe coverage %.1f much higher than branch %.1f; path resolution broken",
			c.ExePct, r.Branch.ExePct)
	}
}

func TestDifficultDefinition(t *testing.T) {
	if difficult(0, 0, 0.1) {
		t.Error("unseen path cannot be difficult")
	}
	if difficult(1, 10, 0.1) {
		t.Error("rate exactly T must not be difficult (strict >)")
	}
	if !difficult(2, 10, 0.1) {
		t.Error("rate above T must be difficult")
	}
}

func TestConfigDefaults(t *testing.T) {
	p, _ := synth.ProfileByName("comp")
	prog := synth.Generate(p)
	prof := Run(prog, Config{MaxInsts: 50_000})
	if len(prof.ByN) != 3 {
		t.Errorf("zero-value config should default to 3 n values, got %d", len(prof.ByN))
	}
}

func TestStringSummary(t *testing.T) {
	p := profileOf(t, "comp", 100_000)
	s := p.String()
	if s == "" || p.UniqueBranches() == 0 {
		t.Errorf("summary empty: %q", s)
	}
}

func TestDifficultPathIDsEdgeCases(t *testing.T) {
	p := profileOf(t, "comp", 150_000)
	// Unknown n.
	if ids := p.DifficultPathIDs(7, 0.10, 0); ids != nil {
		t.Errorf("unknown n returned %d ids", len(ids))
	}
	// Impossible threshold: nothing mispredicts >100%.
	if ids := p.DifficultPathIDs(10, 1.0, 0); len(ids) != 0 {
		t.Errorf("T=1.0 returned %d ids", len(ids))
	}
	// Ordering is by misprediction mass (weakly decreasing) -- verified
	// indirectly: limit=1 must return the same head as limit=3.
	one := p.DifficultPathIDs(10, 0.10, 1)
	three := p.DifficultPathIDs(10, 0.10, 3)
	if len(one) == 1 && len(three) >= 1 && one[0] != three[0] {
		t.Error("head of ordering unstable")
	}
}

func TestEmptyProfileTables(t *testing.T) {
	// A program with no terminating branches yields empty-but-sane
	// tables.
	b := program.NewBuilder("nobranch")
	b.Label("entry")
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: 4, Src1: 4, Imm: 1})
	b.Label("halt")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "halt")
	p := Run(b.Finish(), Config{MaxInsts: 100})
	if p.Branches != 0 {
		t.Fatalf("unexpected branches: %d", p.Branches)
	}
	if p.MispredictRate() != 0 {
		t.Error("mispredict rate on empty profile")
	}
	rows := p.Table1([]float64{0.1})
	for _, r := range rows {
		if r.UniquePaths != 0 || r.AvgScope != 0 {
			t.Errorf("non-empty table1 row: %+v", r)
		}
	}
	for _, r := range p.Table2([]float64{0.1}) {
		if r.Branch.MisPct != 0 || r.Branch.ExePct != 0 {
			t.Errorf("non-empty table2 row: %+v", r)
		}
	}
}

// refProfile is the map-based profiler the flat tables replaced: one Go
// map of per-path heap objects per path length and one map of
// per-branch objects. It is kept as the reference the flat tables must
// match on every number a caller can read.
type refProfile struct {
	insts, branches, mispredicts uint64
	ns                           []int
	paths                        []map[path.ID]*refPath
	branchStats                  map[isa.Addr]*refBranch
}

type refPath struct {
	occurrences, mispredicts uint64
	scope                    int
}

type refBranch struct{ executions, mispredicts uint64 }

func refRun(prog *program.Program, cfg Config) *refProfile {
	r := &refProfile{ns: cfg.Ns, branchStats: map[isa.Addr]*refBranch{}}
	var trackers []*path.Tracker
	for _, n := range cfg.Ns {
		r.paths = append(r.paths, map[path.ID]*refPath{})
		trackers = append(trackers, path.NewTracker(n))
	}
	pred := bpred.New(bpred.DefaultConfig())
	r.insts = emu.New(prog).Run(cfg.MaxInsts, func(rec *emu.Record) bool {
		if !rec.Inst.IsBranch() {
			return true
		}
		miss := pred.Update(rec.PC, rec.Inst, pred.Predict(rec.PC, rec.Inst), rec.Taken, rec.NextPC)
		if rec.Inst.IsTerminatingBranch() {
			r.branches++
			bs := r.branchStats[rec.PC]
			if bs == nil {
				bs = &refBranch{}
				r.branchStats[rec.PC] = bs
			}
			bs.executions++
			if miss {
				r.mispredicts++
				bs.mispredicts++
			}
			for i, tr := range trackers {
				if !tr.Full() {
					continue
				}
				id := tr.ID(rec.PC)
				ps := r.paths[i][id]
				if ps == nil {
					ps = &refPath{scope: tr.Scope(rec.PC)}
					r.paths[i][id] = ps
				}
				ps.occurrences++
				if miss {
					ps.mispredicts++
				}
			}
		}
		if rec.Taken {
			for _, tr := range trackers {
				tr.Observe(path.TakenBranch{PC: rec.PC, Target: rec.NextPC, Seq: rec.Seq})
			}
		}
		return true
	})
	return r
}

func (r *refProfile) table1(thresholds []float64) []Table1Row {
	var rows []Table1Row
	for i, paths := range r.paths {
		row := Table1Row{N: r.ns[i], UniquePaths: len(paths), DifficultAt: map[float64]int{}}
		var scopeSum float64
		for _, ps := range paths {
			scopeSum += float64(ps.scope)
			for _, T := range thresholds {
				if float64(ps.mispredicts)/float64(ps.occurrences) > T {
					row.DifficultAt[T]++
				}
			}
		}
		if len(paths) > 0 {
			row.AvgScope = scopeSum / float64(len(paths))
		}
		rows = append(rows, row)
	}
	return rows
}

func (r *refProfile) coverage(miss, exe uint64) Coverage {
	var c Coverage
	if r.mispredicts > 0 {
		c.MisPct = 100 * float64(miss) / float64(r.mispredicts)
	}
	if r.branches > 0 {
		c.ExePct = 100 * float64(exe) / float64(r.branches)
	}
	return c
}

func (r *refProfile) table2(thresholds []float64) []Table2Row {
	var rows []Table2Row
	for _, T := range thresholds {
		row := Table2Row{T: T, ByN: map[int]Coverage{}}
		var bMiss, bExe uint64
		for _, bs := range r.branchStats {
			if float64(bs.mispredicts)/float64(bs.executions) > T {
				bMiss += bs.mispredicts
				bExe += bs.executions
			}
		}
		row.Branch = r.coverage(bMiss, bExe)
		for i, paths := range r.paths {
			var miss, exe uint64
			for _, ps := range paths {
				if float64(ps.mispredicts)/float64(ps.occurrences) > T {
					miss += ps.mispredicts
					exe += ps.occurrences
				}
			}
			row.ByN[r.ns[i]] = r.coverage(miss, exe)
		}
		rows = append(rows, row)
	}
	return rows
}

func (r *refProfile) difficultPathIDs(n int, T float64, limit int) []uint64 {
	i := 0
	for i < len(r.ns) && r.ns[i] != n {
		i++
	}
	if i == len(r.ns) {
		return nil
	}
	type scored struct {
		id   path.ID
		miss uint64
	}
	var all []scored
	for id, ps := range r.paths[i] {
		if float64(ps.mispredicts)/float64(ps.occurrences) > T {
			all = append(all, scored{id, ps.mispredicts})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].miss != all[b].miss {
			return all[a].miss > all[b].miss
		}
		return all[a].id < all[b].id
	})
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	out := make([]uint64, len(all))
	for j, s := range all {
		out[j] = uint64(s.id)
	}
	return out
}

// TestFlatProfileMatchesMapReference runs the flat profiler and the
// map-based reference on the same programs and compares every number a
// caller can read: the totals, Table 1 (AvgScope bit for bit), Table 2,
// the static-branch count and the ordered difficult-path lists. The
// budgets and path lengths span tables that never grow (n = 1) and ones
// that double several times (n = 16 at 400K instructions), and the
// repeated n = 10 checks that two tables of one length stay apart. The
// reference keeps every path, so T = 0, the lowest threshold at which a
// profile may drop the paths that never mispredicted, checks that rule.
func TestFlatProfileMatchesMapReference(t *testing.T) {
	thresholds := []float64{0, .05, .10, .15}
	for _, bench := range []string{"comp", "gcc", "go", "li", "crafty_2k", "twolf_2k"} {
		sp, err := synth.ProfileByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		prog := synth.Generate(sp)
		for _, cfg := range []Config{
			{Ns: []int{4, 10, 16}, MaxInsts: 100_000},
			{Ns: []int{4, 10, 16}, MaxInsts: 400_000},
			{Ns: []int{1, 10, 10}, MaxInsts: 100_000},
			{Ns: []int{1, 10, 10}, MaxInsts: 400_000},
		} {
			got, want := Run(prog, cfg), refRun(prog, cfg)
			where := fmt.Sprintf("%s Ns=%v at %d", bench, cfg.Ns, cfg.MaxInsts)
			if got.Insts != want.insts || got.Branches != want.branches || got.Mispredicts != want.mispredicts {
				t.Fatalf("%s: totals %d/%d/%d, reference %d/%d/%d", where,
					got.Insts, got.Branches, got.Mispredicts, want.insts, want.branches, want.mispredicts)
			}
			g1, w1 := got.Table1(thresholds), want.table1(thresholds)
			if !reflect.DeepEqual(g1, w1) {
				t.Errorf("%s: Table1\n got %+v\nwant %+v", where, g1, w1)
			}
			for i := range g1 {
				if math.Float64bits(g1[i].AvgScope) != math.Float64bits(w1[i].AvgScope) {
					t.Errorf("%s n=%d: AvgScope %v, reference %v", where, g1[i].N, g1[i].AvgScope, w1[i].AvgScope)
				}
			}
			if g2, w2 := got.Table2(thresholds), want.table2(thresholds); !reflect.DeepEqual(g2, w2) {
				t.Errorf("%s: Table2\n got %+v\nwant %+v", where, g2, w2)
			}
			if g, w := got.UniqueBranches(), len(want.branchStats); g != w {
				t.Errorf("%s: UniqueBranches %d, reference %d", where, g, w)
			}
			for _, n := range cfg.Ns {
				for _, T := range thresholds {
					for _, limit := range []int{0, 1, 50} {
						g, w := got.DifficultPathIDs(n, T, limit), want.difficultPathIDs(n, T, limit)
						if !reflect.DeepEqual(g, w) {
							t.Errorf("%s: DifficultPathIDs(%d, %.2f, %d) = %d ids, reference %d, or their order differs",
								where, n, T, limit, len(g), len(w))
						}
					}
				}
			}
		}
	}
}

// TestRunRetainsOnlyLiveEntries pins the retained profile's size: when
// Run returns, each path length keeps exactly the paths that
// mispredicted, as many as the map-based reference counts, and the branch
// entries are exactly the executed branches. Each is a slice with no
// spare capacity left from the open-addressed tables it was counted in.
func TestRunRetainsOnlyLiveEntries(t *testing.T) {
	sp, err := synth.ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prog := synth.Generate(sp)
	cfg := DefaultConfig()
	cfg.MaxInsts = 300_000
	p, ref := Run(prog, cfg), refRun(prog, cfg)
	for i, np := range p.ByN {
		if len(np.paths) == 0 || len(np.paths) != cap(np.paths) {
			t.Errorf("n=%d: %d path entries in a slice of capacity %d", np.N, len(np.paths), cap(np.paths))
		}
		for _, e := range np.paths {
			if e.mispredicts == 0 {
				t.Fatalf("n=%d: retained a path that never mispredicted", np.N)
			}
		}
		want := 0
		for _, ps := range ref.paths[i] {
			if ps.mispredicts > 0 {
				want++
			}
		}
		if len(np.paths) != want {
			t.Errorf("n=%d: retained %d paths, reference has %d that mispredicted", np.N, len(np.paths), want)
		}
		if len(np.paths) >= np.unique {
			t.Errorf("n=%d: retained %d of %d unique paths; every one mispredicted", np.N, len(np.paths), np.unique)
		}
	}
	if len(p.branches) == 0 || len(p.branches) != cap(p.branches) {
		t.Errorf("%d branch entries in a slice of capacity %d", len(p.branches), cap(p.branches))
	}
	for _, b := range p.branches {
		if b.executions == 0 {
			t.Fatal("retained a branch that never executed")
		}
	}
}

// TestNegativeThresholdPanics pins the one query the retention rule
// cannot answer: below T = 0 a path that never mispredicted would be
// difficult, and the profile no longer holds it.
func TestNegativeThresholdPanics(t *testing.T) {
	p := profileOf(t, "comp", 50_000)
	for name, query := range map[string]func(){
		"Table1":           func() { p.Table1([]float64{.10, -.01}) },
		"Table2":           func() { p.Table2([]float64{.10, -.01}) },
		"DifficultPathIDs": func() { p.DifficultPathIDs(10, -.01, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with T = -.01 did not panic", name)
				}
			}()
			query()
		}()
	}
}

// pollCtx is a context whose Err turns non-nil on its (k+1)th call, so a
// test can end a run after a chosen number of polls without a clock.
type pollCtx struct {
	context.Context
	k, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.k {
		return context.Canceled
	}
	return nil
}

// TestRunContextStopsOnPoll checks that RunContext polls its context
// every ctxCheckInterval instructions and returns the context's error at
// the first poll that reports one.
func TestRunContextStopsOnPoll(t *testing.T) {
	sp, err := synth.ProfileByName("comp")
	if err != nil {
		t.Fatal(err)
	}
	prog := synth.Generate(sp)
	cfg := Config{MaxInsts: 100_000}

	never := &pollCtx{Context: context.Background(), k: math.MaxInt}
	if p, err := RunContext(never, prog, cfg); err != nil || p.Insts != cfg.MaxInsts {
		t.Fatalf("RunContext under a live context = %v; want a full %d-instruction profile", err, cfg.MaxInsts)
	}
	if want := int(cfg.MaxInsts/ctxCheckInterval) + 1; never.polls != want {
		t.Errorf("%d polls over %d instructions, want %d", never.polls, cfg.MaxInsts, want)
	}

	for _, k := range []int{1, 3} {
		ctx := &pollCtx{Context: context.Background(), k: k}
		p, err := RunContext(ctx, prog, Config{MaxInsts: 10_000_000})
		if !errors.Is(err, context.Canceled) || p != nil {
			t.Errorf("k=%d: RunContext = %v, %v; want no profile and context.Canceled", k, p, err)
		}
		if ctx.polls != k+1 {
			t.Errorf("k=%d: %d polls; the run should stop at poll %d", k, ctx.polls, k+1)
		}
	}
}

// TestRunContextCancelledBeforeFirstInstruction runs an empty program,
// on which the emulator's first step panics, under a context that has
// already ended: RunContext must return the error without stepping.
func TestRunContextCancelledBeforeFirstInstruction(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := RunContext(ctx, &program.Program{Name: "empty"}, Config{MaxInsts: 100})
	if !errors.Is(err, context.Canceled) || p != nil {
		t.Errorf("RunContext = %v, %v; want no profile and context.Canceled", p, err)
	}
}

// TestPathEntryIs16Bytes pins the cell size that sets the profiler's
// memory: a 64-bit path ID and two 32-bit counters.
func TestPathEntryIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(pathEntry{}); got != 16 {
		t.Errorf("pathEntry is %d bytes, want 16", got)
	}
}

// TestValidateBounds checks the bound where it lies, without running a
// profile: MaxProfileInsts is accepted, one instruction more is not, and
// a zero budget takes the default.
func TestValidateBounds(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string // substring of the error; empty means accepted
	}{
		{Config{}, ""},
		{Config{MaxInsts: MaxProfileInsts}, ""},
		{Config{Ns: []int{1}, MaxInsts: 1}, ""},
		{Config{MaxInsts: MaxProfileInsts + 1}, "MaxProfileInsts (4294967295)"},
		{Config{MaxInsts: math.MaxUint64}, "MaxProfileInsts (4294967295)"},
		{Config{Ns: []int{4, 0, 16}}, "path length 0 is below 1"},
		{Config{Ns: []int{-3}}, "path length -3 is below 1"},
	} {
		err := c.cfg.Validate()
		if c.want == "" && err != nil {
			t.Errorf("%+v: Validate = %v, want nil", c.cfg, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%+v: Validate = %v, want an error containing %q", c.cfg, err, c.want)
		}
	}
}

// TestRunContextRefusesBadConfig checks that RunContext returns
// Validate's error before it looks at ctx or the program: the context
// has already ended and the program is empty, so a run that got as far
// as its first poll would return context.Canceled instead, and one that
// built its trackers first would panic on the bad path length.
func TestRunContextRefusesBadConfig(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cfg := range []Config{
		{MaxInsts: MaxProfileInsts + 1},
		{Ns: []int{0}, MaxInsts: 100},
	} {
		p, err := RunContext(ctx, &program.Program{Name: "empty"}, cfg)
		if p != nil || err == nil || errors.Is(err, context.Canceled) || err.Error() != cfg.Validate().Error() {
			t.Errorf("%+v: RunContext = %v, %v; want no profile and %v", cfg, p, err, cfg.Validate())
		}
	}
}

// TestRunPanicsOnBadConfig checks that Run, which has no error to
// return, panics with Validate's error.
func TestRunPanicsOnBadConfig(t *testing.T) {
	cfg := Config{MaxInsts: MaxProfileInsts + 1}
	defer func() {
		err, _ := recover().(error)
		if err == nil || err.Error() != cfg.Validate().Error() {
			t.Errorf("Run panicked with %v, want %v", err, cfg.Validate())
		}
	}()
	Run(&program.Program{Name: "empty"}, cfg)
}
