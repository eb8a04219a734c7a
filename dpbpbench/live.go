package main

import (
	"context"
	"fmt"
	"strconv"

	"dpbp"
	"dpbp/internal/bpred"
	"dpbp/internal/cpu"
	"dpbp/internal/emu"
	"dpbp/internal/pathprof"
	"dpbp/internal/program"
	"dpbp/internal/results"
	"dpbp/internal/synth"
)

// coverageN and coverageT select the Table 2 cell mispred_coverage_pct
// reports, and potential_speedup_pct uses the same path length: n=10 at
// T=.10, the paper's Figure 7 operating point.
const (
	coverageN = 10
	coverageT = 0.10
)

// runSpec is one timing or profiling run of a program, configured as exp
// configures the same run.
type runSpec struct {
	label          string
	mode           cpu.Mode
	pruning, preds bool
	n              int  // path length of a perfect-promoted run; 0 keeps the default
	profile        bool // pathprof.Run at n=4,10,16 instead of a timing run
}

func (s runSpec) config(budget uint64) cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.Mode = s.mode
	cfg.Pruning = s.pruning
	cfg.UsePredictions = s.preds
	if s.n != 0 {
		cfg.N = s.n
	}
	cfg.MaxInsts = budget
	return cfg
}

var (
	baseline     = runSpec{label: "baseline", mode: cpu.ModeBaseline}
	noPrune      = runSpec{label: "no-prune", mode: cpu.ModeMicrothread, preds: true}
	prune        = runSpec{label: "prune", mode: cpu.ModeMicrothread, pruning: true, preds: true}
	overheadOnly = runSpec{label: "overhead-only", mode: cpu.ModeMicrothread}
	perfectAll   = runSpec{label: "perfect", mode: cpu.ModePerfectAll}
	profileRun   = runSpec{label: "pathprof", profile: true}
	// fig7Runs is Figure 7's run set, in exp's order.
	fig7Runs = []runSpec{baseline, noPrune, prune, overheadOnly}
)

// coverage returns a profile's Table 2 cell at n=coverageN, T=coverageT.
func coverage(p *pathprof.Profile) pathprof.Coverage {
	return p.Table2([]float64{coverageT})[0].ByN[coverageN]
}

func potential(n int) runSpec {
	return runSpec{label: "potential" + strconv.Itoa(n), mode: cpu.ModePerfectPromoted, n: n}
}

// liveWorkload runs fixed configurations serially on freshly generated
// programs through the timing core and the profiler directly: no run
// cache, replay or scheduler. Side runs complete the simulated end-to-end
// metrics the timed runs do not determine; they run after the measured
// region, untraced, and feed no host-time or per-layer metric.
type liveWorkload struct {
	benches []string
	// variants is how many programs each benchmark's profile generates
	// per seed. Averaging over several keeps the workload's host time and
	// statistics steady from seed to seed.
	variants int
	// budget bounds every run and reference pass, so all runs of one
	// program retire the same stream.
	budget uint64
	timed  []runSpec
	side   []runSpec
}

var liveWorkloads = map[string]*liveWorkload{
	// The programs where microthread machinery is 50-75% of a pruning
	// run's host time.
	"uthread-heavy": {
		benches:  []string{"comp", "li", "perl", "m88ksim", "gap_2k", "mcf_2k", "parser_2k", "vortex_2k"},
		variants: 3,
		budget:   400_000,
		timed:    fig7Runs,
		side:     []runSpec{potential(coverageN), profileRun},
	},
	// The five most-mispredicted programs outside uthread-heavy, where no
	// microthread ever spawns in the timed runs.
	"no-uthread": {
		benches:  []string{"go", "gcc_2k", "gcc", "crafty_2k", "twolf_2k"},
		variants: 3,
		budget:   400_000,
		timed:    []runSpec{baseline, perfectAll, potential(4), potential(10), potential(16), profileRun},
		side:     []runSpec{prune},
	},
}

// seededProfile returns variant j of the named benchmark's generator
// profile under the benchmark seed: its Seed moved by seed*variants+j
// strides. Variant 0 at seed 0 is the paper's program. The stride keeps
// moved seeds clear of the other profiles' own seeds.
func seededProfile(name string, seed int64, variants, j int) (dpbp.CustomProfile, error) {
	p, err := synth.ProfileByName(name)
	p.Seed += (seed*int64(variants) + int64(j)) * 1_000_003
	return p, err
}

// progRuns holds one program's results by run label.
type progRuns struct {
	bench   string
	timing  map[string]*cpu.Result
	profile *pathprof.Profile
	stream  streamCounts
}

// testHookResult, when non-nil, sees every timing result before the
// gate does. Tests use it to inject a fault.
var testHookResult func(what string, r *cpu.Result)

// rep runs one repetition: set-up, the measured region, the checks, then
// the reference passes when traced and the side runs when asked.
func (w *liveWorkload) rep(ctx context.Context, seed int64, tr *tracer, side bool) (*repReport, error) {
	rep := &repReport{Layers: map[string]float64{}}

	var progs []*program.Program
	var runs []progRuns
	var err error
	rep.SetupS, err = timeSetup(tr, func() error {
		progs, runs = nil, nil
		for _, b := range w.benches {
			for j := 0; j < w.variants; j++ {
				p, err := seededProfile(b, seed, w.variants, j)
				if err != nil {
					return err
				}
				id := tr.begin("synth.Generate")
				progs = append(progs, dpbp.CustomWorkload(p).Program)
				tr.end(id, 0, 0)
				runs = append(runs, progRuns{bench: fmt.Sprintf("%s.%d", b, j), timing: map[string]*cpu.Result{}})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var g gate
	m := startMeter()
	root := tr.begin("run")
	mach := cpu.NewMachine()
	for i, prog := range progs {
		for _, s := range w.timed {
			w.do(ctx, mach, prog, s, &runs[i], &g, tr)
		}
	}
	tr.end(root, 0, 0)
	if err := m.stop(rep); err != nil {
		return nil, err
	}

	rep.Digest, rep.SimInsts = w.record(runs, rep.Layers)
	if tr != nil {
		w.reference(progs, tr, rep.Layers)
	}
	if side {
		for i, prog := range progs {
			for _, s := range w.side {
				w.do(ctx, mach, prog, s, &runs[i], &g, nil)
			}
		}
	}
	rep.Sim = simulated(runs)
	rep.Ops, rep.Failures = g.ops, g.failures
	return rep, nil
}

// do runs spec s on prog, passes the outcome through the gate and files
// a passing result under the spec's label.
func (w *liveWorkload) do(ctx context.Context, mach *cpu.Machine, prog *program.Program,
	s runSpec, r *progRuns, g *gate, tr *tracer) {
	what := r.bench + "/" + s.label
	if s.profile {
		cfg := pathprof.DefaultConfig()
		cfg.MaxInsts = w.budget
		id := tr.begin("pathprof.Run")
		p := pathprof.Run(prog, cfg)
		tr.end(id, p.Insts, p.Branches)
		err := r.stream.check(p.Insts, p.Branches)
		g.op(what, err)
		if err == nil {
			r.profile = p
		}
		return
	}
	cfg := s.config(w.budget)
	id := tr.begin("cpu.RunContext/" + s.label)
	res, err := mach.RunContext(ctx, prog, cfg)
	tr.end(id, res.Insts, res.Branches)
	if testHookResult != nil {
		testHookResult(what, res)
	}
	err = timingErr(res, err, cfg, &r.stream)
	g.op(what, err)
	if err == nil {
		r.timing[s.label] = res
	}
}

// record digests the timed runs' statistics and fills the per-layer work
// counters, returning the digest and the simulated instruction count.
func (w *liveWorkload) record(runs []progRuns, layers map[string]float64) (string, uint64) {
	d := newDigest()
	var timingInsts, profInsts uint64
	var bases, prunes []*cpu.Result
	for _, r := range runs {
		for _, s := range w.timed {
			key := r.bench + "/" + s.label
			if s.profile {
				if r.profile != nil {
					d.profile(key, r.profile)
					profInsts += r.profile.Insts
				}
				continue
			}
			res := r.timing[s.label]
			if res == nil {
				continue
			}
			d.timing(key, res)
			timingInsts += res.Insts
			switch s.label {
			case baseline.label:
				bases = append(bases, res)
			case prune.label:
				prunes = append(prunes, res)
			}
		}
	}
	layers["cpu.insts"] = float64(timingInsts)
	layers["pathprof.insts"] = float64(profInsts)
	engineCounters(bases, prunes, layers)
	return d.sum(), timingInsts + profInsts
}

// reference runs the two reference passes over each program at the
// workload's budget, the emulator alone and the emulator feeding the
// predictor, and splits the timed runs into layer self times by
// subtraction: emu, then bpred over emu, then the core over both, then
// microthread machinery and profiler bookkeeping over the baseline.
func (w *liveWorkload) reference(progs []*program.Program, tr *tracer, layers map[string]float64) {
	root := tr.begin("reference")
	for _, prog := range progs {
		id := tr.begin("emu.Run")
		n := emu.New(prog).Run(w.budget, nil)
		tr.end(id, n, 0)

		id = tr.begin("emu.Run+bpred.Predict/Update")
		pred := bpred.New(bpred.DefaultConfig())
		var branches uint64
		n = emu.New(prog).Run(w.budget, func(r *emu.Record) bool {
			if r.Inst.IsBranch() {
				branches++
				guess := pred.Predict(r.PC, r.Inst)
				pred.Update(r.PC, r.Inst, guess, r.Taken, r.NextPC)
			}
			return true
		})
		tr.end(id, n, branches)
	}
	tr.end(root, 0, 0)

	emuSecs, _, _ := tr.total("emu.Run")
	ebSecs, ebInsts, ebBranches := tr.total("emu.Run+bpred.Predict/Update")
	emuBpred := ratio(ebSecs*1e9, float64(ebInsts))
	base := tr.nsPerInst("cpu.RunContext/" + baseline.label)
	layers["emu.ns_per_inst"] = tr.nsPerInst("emu.Run")
	layers["bpred.ns_per_branch"] = ratio((ebSecs-emuSecs)*1e9, float64(ebBranches))
	layers["cpu.base_ns_per_inst"] = base
	layers["cpu.core_ns_per_inst"] = base - emuBpred
	layers["cpu.perfect_ns_per_inst"] = tr.nsPerInst("cpu.RunContext/" + perfectAll.label)
	if p := tr.nsPerInst("cpu.RunContext/" + prune.label); p > 0 {
		layers["uthread.ns_per_inst"] = p - base
	}
	if p := tr.nsPerInst("pathprof.Run"); p > 0 {
		layers["pathprof.ns_per_inst"] = p
		layers["pathprof.self_ns_per_inst"] = p - emuBpred
	}
	layers["synth.generate_ms"] = tr.meanMs("synth.Generate")
}

// engineCounters fills the timing-core and microthread counters from a
// workload's baseline runs and its pruning runs (none on no-uthread,
// whose microthread counters then read 0).
func engineCounters(bases, prunes []*cpu.Result, layers map[string]float64) {
	var insts, mis uint64
	for _, r := range bases {
		insts += r.Insts
		mis += r.Mispredicts
	}
	layers["cpu.mispredicts_per_kinst"] = ratio(1000*float64(mis), float64(insts))

	var u cpu.MicroStats
	var pInsts, builds, promotions, hits, probes uint64
	for _, r := range prunes {
		u.AttemptedSpawns += r.Micro.AttemptedSpawns
		u.Spawned += r.Micro.Spawned
		u.AbortedActive += r.Micro.AbortedActive
		u.Early += r.Micro.Early
		u.Late += r.Micro.Late
		u.Useless += r.Micro.Useless
		u.MicroInsts += r.Micro.MicroInsts
		pInsts += r.Insts
		builds += r.Build.Builds
		promotions += r.PathCache.Promotions
		hits += r.PCache.Hits
		probes += r.PCache.Hits + r.PCache.Misses
	}
	layers["uthread.attempted_spawns"] = float64(u.AttemptedSpawns)
	layers["uthread.spawn_ratio"] = ratio(float64(u.Spawned), float64(u.AttemptedSpawns))
	layers["uthread.abort_active_ratio"] = ratio(float64(u.AbortedActive), float64(u.Spawned))
	layers["uthread.early_ratio"] = ratio(float64(u.Early), float64(u.Early+u.Late+u.Useless))
	layers["uthread.micro_insts_per_inst"] = ratio(float64(u.MicroInsts), float64(pInsts))
	layers["uthread.builds"] = float64(builds)
	layers["pathcache.promotions"] = float64(promotions)
	layers["pcache.hit_ratio"] = ratio(float64(hits), float64(probes))
}

// simulated computes the simulated end-to-end metrics the programs' runs
// determine: each needs its configuration to have passed on every
// program.
func simulated(runs []progRuns) map[string]float64 {
	var base, uth, pot, cov []float64
	for _, r := range runs {
		b := r.timing[baseline.label]
		if b == nil {
			continue
		}
		base = append(base, b.IPC())
		if p := r.timing[prune.label]; p != nil {
			uth = append(uth, p.Speedup(b))
		}
		if p := r.timing[potential(coverageN).label]; p != nil {
			pot = append(pot, p.Speedup(b))
		}
		if r.profile != nil {
			cov = append(cov, coverage(r.profile).MisPct)
		}
	}
	sim := map[string]float64{}
	if len(base) == len(runs) {
		sim["ipc_base_geomean"] = results.Geomean(base)
	}
	if len(uth) == len(runs) {
		sim["uthread_speedup_pct"] = 100 * results.Geomean(uth)
	}
	if len(pot) == len(runs) {
		sim["potential_speedup_pct"] = 100 * results.Geomean(pot)
	}
	if len(cov) == len(runs) {
		sim["mispred_coverage_pct"] = mean(cov)
	}
	return sim
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
