package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"dpbp/internal/cpu"
	"dpbp/internal/exp"
	"dpbp/internal/report"
	"dpbp/internal/results"
	"dpbp/internal/runcache"
	"dpbp/internal/synth"
)

const paperAll = "paper-all"

// paperAllOptions are `dpbp -exp all`'s options: a fresh run cache, replay
// on and two workers. The budgets are pinned to the defaults they have
// today, so the workload does not move with them.
func paperAllOptions(cache *runcache.Cache) exp.Options {
	return exp.Options{TimingInsts: 400_000, ProfileInsts: 1_000_000, Parallelism: 2, Cache: cache}
}

// paperAllRep regenerates the paper: exp.Collect("all") rendered as text,
// from a cold cache. exp generates its programs from their names inside
// the measured region, as `dpbp -exp all` does, so set-up has nothing to
// hand it. Set-up instead times the same generation of the twenty
// programs and throws them away, so that a change to synth moves setup_s
// here as on the live workloads.
func paperAllRep(ctx context.Context, tr *tracer) (*repReport, error) {
	rep := &repReport{Layers: map[string]float64{}}
	var err error
	rep.SetupS, err = timeSetup(tr, func() error {
		for _, name := range synth.Names() {
			p, err := synth.ProfileByName(name)
			if err != nil {
				return err
			}
			id := tr.begin("synth.Generate")
			synth.Generate(p)
			tr.end(id, 0, 0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cache := runcache.New()
	o := paperAllOptions(cache)
	var out bytes.Buffer
	m := startMeter()
	root := tr.begin("run")
	sections, err := collectAll(ctx, o, tr)
	if err == nil {
		id := tr.begin("report.RenderSections")
		err = report.RenderSections(&out, "text", sections)
		tr.end(id, 0, 0)
	}
	tr.end(root, 0, 0)
	if err != nil {
		return nil, err
	}
	if err := m.stop(rep); err != nil {
		return nil, err
	}
	if out.Len() == 0 {
		return nil, errors.New("report rendered nothing")
	}

	var g gate
	rep.Digest, rep.Sim, rep.SimInsts, err = checkPaperAll(sections, o, &g, rep.Layers)
	if err != nil {
		return nil, err
	}
	rep.Ops, rep.Failures = g.ops, g.failures

	st := cache.Stats()
	rep.Layers["runcache.lookups"] = float64(st.Lookups)
	rep.Layers["runcache.computes"] = float64(st.Computes)
	rep.Layers["runcache.hit_ratio"] = ratio(float64(st.Hits), float64(st.Lookups))
	rep.Layers["runcache.waits"] = float64(st.Waits)
	rep.Layers["sched.cpu_util"] = ratio(rep.CPUS, rep.WallS*float64(o.Parallelism))
	if tr != nil {
		for _, s := range expSteps {
			rep.Layers[s.metric], _, _ = tr.total(s.span)
		}
		render, _, _ := tr.total("report.RenderSections")
		rep.Layers["report.render_ms"] = 1e3 * render
		rep.Layers["synth.generate_ms"] = tr.meanMs("synth.Generate")
	}
	return rep, nil
}

// expStep is one of exp.Collect("all")'s section functions, with the
// span and per-layer metric its time goes to.
type expStep struct {
	span, metric string
	run          func(context.Context, exp.Options) ([]results.Section, error)
}

// expSteps are exp.Collect("all")'s section calls in its order, building
// the same sections.
var expSteps = []expStep{
	{"exp.Table1", "exp.table1_s", func(ctx context.Context, o exp.Options) ([]results.Section, error) {
		v, err := exp.Table1(ctx, o)
		return []results.Section{{Key: "table1", Val: v}}, err
	}},
	{"exp.Table2", "exp.table2_s", func(ctx context.Context, o exp.Options) ([]results.Section, error) {
		v, err := exp.Table2(ctx, o)
		return []results.Section{{Key: "table2", Val: v}}, err
	}},
	{"exp.Perfect", "exp.perfect_s", func(ctx context.Context, o exp.Options) ([]results.Section, error) {
		v, err := exp.Perfect(ctx, o)
		return []results.Section{{Key: "perfect", Val: v}}, err
	}},
	{"exp.Figure6", "exp.figure6_s", func(ctx context.Context, o exp.Options) ([]results.Section, error) {
		v, err := exp.Figure6(ctx, o)
		return []results.Section{{Key: "figure6", Val: v}}, err
	}},
	{"exp.RunFigure7Set", "exp.figure7_s", func(ctx context.Context, o exp.Options) ([]results.Section, error) {
		runs, runErrs, err := exp.RunFigure7Set(ctx, o)
		return []results.Section{
			{Key: "figure7", Val: &exp.Figure7Result{Runs: runs, Errors: runErrs}},
			{Key: "figure8", Val: exp.Figure8FromRuns(runs)},
			{Key: "figure9", Val: exp.Figure9FromRuns(runs)},
		}, err
	}},
}

// collectAll is exp.Collect(ctx, "all", o) with a span around each
// section call. Traced and untraced repetitions both run it, so they do
// the same work; TestCollectAllMatchesCollect holds it to Collect.
func collectAll(ctx context.Context, o exp.Options, tr *tracer) ([]results.Section, error) {
	var out []results.Section
	for _, s := range expSteps {
		id := tr.begin(s.span)
		sections, err := s.run(ctx, o)
		tr.end(id, 0, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, sections...)
	}
	return out, nil
}

// checkPaperAll passes every run behind the sections through the gate
// and returns the digest, the simulated end-to-end metrics and the
// simulated instruction count; it fills the per-layer work counters.
// Each distinct run is one operation. Per program exp.Collect("all")
// makes nine, the cache computing each once: one profile that both
// tables read, and eight timing runs, of which the baseline serves the
// perfect bound, Figure 6 and Figure 7. A run fails when a section that
// reads it has no row for the program. Only Figure 7's results carry the
// runs themselves, so only its four runs also face the counter algebra
// and the stream check.
func checkPaperAll(sections []results.Section, o exp.Options, g *gate,
	layers map[string]float64) (string, map[string]float64, uint64, error) {
	var t1 *exp.Table1Result
	var t2 *exp.Table2Result
	var pf *exp.PerfectResult
	var f6 *exp.Figure6Result
	var f7 *exp.Figure7Result
	for _, s := range sections {
		switch v := s.Val.(type) {
		case *exp.Table1Result:
			t1 = v
		case *exp.Table2Result:
			t2 = v
		case *exp.PerfectResult:
			pf = v
		case *exp.Figure6Result:
			f6 = v
		case *exp.Figure7Result:
			f7 = v
		}
	}
	if t1 == nil || t2 == nil || pf == nil || f6 == nil || f7 == nil {
		return "", nil, 0, fmt.Errorf("exp.Collect(\"all\") returned %d sections, missing a table or figure", len(sections))
	}
	ti, ni := indexOf(t2.Thresholds, coverageT), indexOf(t2.PathLengths, coverageN)
	if ti < 0 || ni < 0 {
		return "", nil, 0, fmt.Errorf("table 2 lacks n=%d or T=%v", coverageN, coverageT)
	}

	// labels are one program's runs; errs keeps each run's first failure.
	var potentials, fig7Labels []string
	for _, n := range f6.PathLengths {
		potentials = append(potentials, potential(n).label)
	}
	for _, s := range fig7Runs {
		fig7Labels = append(fig7Labels, s.label)
	}
	labels := append(append([]string{profileRun.label, perfectAll.label}, potentials...), fig7Labels...)
	errs := map[string]error{}
	fail := func(bench string, err error, runs ...string) {
		for _, l := range runs {
			if k := bench + "/" + l; err != nil && errs[k] == nil {
				errs[k] = err
			}
		}
	}

	d := newDigest()
	names := synth.Names()

	t1Rows := map[string]results.Table1Row{}
	for _, r := range t1.Rows {
		t1Rows[r.Bench] = r
	}
	for _, b := range names {
		r, ok := t1Rows[b]
		fail(b, rowErr(b, ok, t1.Errors), profileRun.label)
		for _, c := range r.ByN {
			key := fmt.Sprintf("table1/%s/n%d", b, c.N)
			d.uints(key, append([]uint64{uint64(c.UniquePaths)}, uints(c.Difficult)...)...)
			d.floats(key+"/scope", c.AvgScope)
		}
	}

	t2Rows := map[string]results.Table2Row{}
	for _, r := range t2.Rows {
		t2Rows[r.Bench] = r
	}
	var cov []float64
	for _, b := range names {
		r, ok := t2Rows[b]
		fail(b, rowErr(b, ok, t2.Errors), profileRun.label)
		if ok {
			c := r.ByT[ti]
			d.floats("table2/"+b, c.Branch.MisPct, c.Branch.ExePct, c.ByN[ni].MisPct, c.ByN[ni].ExePct)
			cov = append(cov, c.ByN[ni].MisPct)
		}
	}

	pfRows := map[string]results.PerfectRow{}
	for _, r := range pf.Rows {
		pfRows[r.Bench] = r
	}
	for _, b := range names {
		r, ok := pfRows[b]
		fail(b, rowErr(b, ok, pf.Errors), baseline.label, perfectAll.label)
		if ok {
			d.floats("perfect/"+b, r.BaselineIPC, r.PerfectIPC)
		}
	}

	f6Rows := map[string]results.Figure6Row{}
	for _, r := range f6.Rows {
		f6Rows[r.Bench] = r
	}
	for _, b := range names {
		r, ok := f6Rows[b]
		fail(b, rowErr(b, ok, f6.Errors), append([]string{baseline.label}, potentials...)...)
		for _, n := range f6.PathLengths {
			if ok {
				d.floats(fmt.Sprintf("figure6/%s/n%d", b, n), r.SpeedupByN[n])
			}
		}
	}

	// Figure 7's results carry the runs themselves, so each also meets
	// the oracle's counter algebra and the stream check.
	f7Runs := map[string]results.Figure7Runs{}
	for _, r := range f7.Runs {
		f7Runs[r.Bench] = r
	}
	var bases, prunes []*cpu.Result
	var baseIPC, uth []float64
	var timingInsts uint64
	for _, b := range names {
		r, ok := f7Runs[b]
		if err := rowErr(b, ok, f7.Errors); err != nil {
			fail(b, err, fig7Labels...)
			continue
		}
		var stream streamCounts
		for i, res := range []*cpu.Result{r.Base, r.NoPrune, r.Prune, r.Overhead} {
			s := fig7Runs[i]
			if res == nil {
				fail(b, errors.New("no result"), s.label)
				continue
			}
			fail(b, timingErr(res, nil, s.config(o.TimingInsts), &stream), s.label)
			d.timing("figure7/"+b+"/"+s.label, res)
		}
		if r.Base == nil || r.Prune == nil {
			continue
		}
		bases = append(bases, r.Base)
		prunes = append(prunes, r.Prune)
		baseIPC = append(baseIPC, r.Base.IPC())
		uth = append(uth, r.Prune.Speedup(r.Base))
		// Every timing run of the program retires the baseline's stream.
		timingInsts += uint64(len(labels)-1) * r.Base.Insts
	}
	for _, b := range names {
		for _, l := range labels {
			g.op(b+"/"+l, errs[b+"/"+l])
		}
	}

	profInsts := uint64(len(t1.Rows)) * o.ProfileInsts
	layers["cpu.insts"] = float64(timingInsts)
	layers["pathprof.insts"] = float64(profInsts)
	engineCounters(bases, prunes, layers)

	sim := map[string]float64{
		"ipc_base_geomean":      results.Geomean(baseIPC),
		"uthread_speedup_pct":   100 * results.Geomean(uth),
		"potential_speedup_pct": 100 * f6.Geomean[coverageN],
		"mispred_coverage_pct":  mean(cov),
	}
	return d.sum(), sim, timingInsts + profInsts, nil
}

// rowErr returns why a section has no row for bench: the error its sweep
// recorded, or a row that is simply missing. It is nil when the row is
// there.
func rowErr(bench string, has bool, errs []results.RunError) error {
	for _, e := range errs {
		if e.Bench == bench {
			return errors.New(e.Err)
		}
	}
	if !has {
		return errors.New("no row")
	}
	return nil
}

func indexOf[T comparable](xs []T, x T) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func uints(xs []int) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}
