package exp

import (
	"context"
	"fmt"
	"strings"

	"dpbp/internal/cpu"
	"dpbp/internal/program"
	"dpbp/internal/results"
	"dpbp/internal/runcache"
	"dpbp/internal/sched"
	"dpbp/internal/synth"
)

// SMTResult re-exports the typed result.
type SMTResult = results.SMTResult

// defaultSMTMixes is the canned interference matrix: a homogeneous
// branchy pair (self-interference under one spawn budget), a
// branchy+loopy mix (asymmetric spawn pressure), and two spawn-heavy
// workloads whose microthreads fight over the same budget and — in the
// shared variant — the same Path Cache sets.
func defaultSMTMixes() [][]string {
	return [][]string{
		{"gcc", "gcc"},
		{"gcc", "ijpeg"},
		{"go", "crafty_2k"},
	}
}

// smtSharingVariants returns the sharing matrix the study sweeps: every
// mix runs with everything private, then with the flagged structures
// shared. A -smt spec carrying explicit sharing flags replaces the
// default shared-Path-Cache variant.
func smtSharingVariants(o Options) []cpu.SMTConfig {
	shared := cpu.SMTConfig{SharedPathCache: true}
	if f := o.SMT; f.SharedPathCache || f.SharedPCache || f.SharedMicroRAM || f.SharedPredictor {
		shared = cpu.SMTConfig{
			SharedPathCache: f.SharedPathCache,
			SharedPCache:    f.SharedPCache,
			SharedMicroRAM:  f.SharedMicroRAM,
			SharedPredictor: f.SharedPredictor,
		}
	}
	return []cpu.SMTConfig{{}, shared}
}

// sharingName labels one sharing variant for rows and CSV keys.
func sharingName(s cpu.SMTConfig) string {
	var parts []string
	if s.SharedPathCache {
		parts = append(parts, "pathcache")
	}
	if s.SharedPCache {
		parts = append(parts, "pcache")
	}
	if s.SharedMicroRAM {
		parts = append(parts, "uram")
	}
	if s.SharedPredictor {
		parts = append(parts, "pred")
	}
	if len(parts) == 0 {
		return "private"
	}
	return "shared-" + strings.Join(parts, "+")
}

// coveragePct is difficult-path coverage: the percentage of hardware
// mispredicts the microthread mechanism fixed, either by a used
// prediction (UsedFixed) or by an early recovery from a late one.
func coveragePct(r *cpu.Result) float64 {
	if r.HWMispredicts == 0 {
		return 0
	}
	return 100 * float64(r.Micro.UsedFixed+r.Micro.EarlyRecoveries) / float64(r.HWMispredicts)
}

// SMT runs the interference study: every workload mix under every
// sharing variant, with per-context IPC and difficult-path coverage
// compared against the (cached) solo run of the same workload, and the
// contended-spawn traffic against the machine-wide microcontext budget.
// Options.SMT, when enabled, overrides the mix list, fetch policy, and
// the shared variant's flags. A failed mix costs only its rows,
// recorded in Errors as "mix/sharing".
func SMT(ctx context.Context, o Options) (*results.SMTResult, error) {
	o = o.withDefaults()
	mixes := defaultSMTMixes()
	if o.SMT.Enabled() {
		names := make([]string, len(o.SMT.Contexts))
		for i, c := range o.SMT.Contexts {
			names[i] = c.Bench
		}
		mixes = [][]string{names}
	}
	variants := smtSharingVariants(o)
	policy := o.SMT.FetchPolicy

	res := &results.SMTResult{
		FetchPolicy: policy.String(),
		Mixes:       make([]results.SMTMix, len(mixes)),
	}
	type unit struct{ mix, variant int }
	var units []unit
	for mi, names := range mixes {
		res.Mixes[mi] = results.SMTMix{
			Name:     strings.Join(names, "+"),
			Variants: make([]results.SMTVariant, len(variants)),
		}
		for vi := range variants {
			units = append(units, unit{mi, vi})
		}
	}

	errs := sched.Run(ctx, len(units), o.schedOptions(), func(ctx context.Context, ui int) error {
		u := units[ui]
		names := mixes[u.mix]
		progs, err := o.programsFor(names)
		if err != nil {
			return err
		}
		cfg := timingConfig(o, cpu.ModeMicrothread, true, true)
		cfg.SMT = variants[u.variant]
		cfg.SMT.FetchPolicy = policy
		cfg.SMT.Contexts = make([]cpu.WorkloadRef, len(names))
		for i, name := range names {
			cfg.SMT.Contexts[i] = cpu.WorkloadRef{Bench: name}
		}
		run, err := smtRun(ctx, o, progs, cfg)
		if err != nil {
			return err
		}

		v := &res.Mixes[u.mix].Variants[u.variant]
		v.Sharing = sharingName(variants[u.variant])
		v.MachineIPC = run.IPC()
		v.Cycles = run.Cycles
		v.Contexts = make([]results.SMTContextRow, len(run.Contexts))
		for i, c := range run.Contexts {
			soloCfg := cfg
			soloCfg.SMT = cpu.SMTConfig{}
			solo, err := timedRun(ctx, o, progs[i], soloCfg)
			if err != nil {
				return err
			}
			row := results.SMTContextRow{
				Bench:           names[i],
				IPC:             c.IPC(),
				SoloIPC:         solo.IPC(),
				CoveragePct:     coveragePct(c),
				SoloCoveragePct: coveragePct(solo),
				AttemptedSpawns: c.Micro.AttemptedSpawns,
				CoRunnerDenied:  c.Micro.CoRunnerDenied,
			}
			if row.AttemptedSpawns > 0 {
				row.DenialRatePct = 100 * float64(row.CoRunnerDenied) / float64(row.AttemptedSpawns)
			}
			v.Contexts[i] = row
		}
		return nil
	})
	for ui, err := range errs {
		if err != nil {
			u := units[ui]
			res.Errors = append(res.Errors, results.RunError{
				Bench: res.Mixes[u.mix].Name + "/" + sharingName(variants[u.variant]),
				Err:   err.Error(),
			})
		}
	}
	// Drop variants whose unit failed so partial results carry only
	// completed rows (a zero-valued variant has no Sharing label).
	for mi := range res.Mixes {
		kept := res.Mixes[mi].Variants[:0]
		for _, v := range res.Mixes[mi].Variants {
			if v.Sharing != "" {
				kept = append(kept, v)
			}
		}
		res.Mixes[mi].Variants = kept
	}
	return res, nil
}

// smtRun executes one cancellable SMT run, memoized through o.Cache
// when one is set. The cache key is the canonical configuration plus
// every context's program fingerprint.
func smtRun(ctx context.Context, o Options, progs []*program.Program, cfg cpu.Config) (*cpu.SMTResult, error) {
	if o.Cache == nil {
		return cpu.RunSMT(ctx, progs, cfg)
	}
	canon := cfg.Canonical()
	parts := make([]any, 0, len(progs)+1)
	for _, p := range progs {
		parts = append(parts, p.Fingerprint())
	}
	parts = append(parts, canon)
	v, err := o.Cache.Do(ctx, runcache.KeyOf("smt", parts...), func() (any, error) {
		return cpu.RunSMT(ctx, progs, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*cpu.SMTResult), nil
}

// ParseSMTSpec parses the CLI's -smt vocabulary:
//
//	bench+bench[:policy][:flag,flag...]
//
// Benchmarks are internal/synth names joined by "+"; policy is "rr"
// (default) or "icount"; flags pick the shared structures from
// pathcache, pcache, uram, pred, or "all". Examples:
//
//	gcc+ijpeg
//	gcc+gcc:icount
//	go+crafty_2k:rr:pathcache,uram
func ParseSMTSpec(s string) (cpu.SMTConfig, error) {
	var out cpu.SMTConfig
	if s == "" {
		return out, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) > 3 {
		return out, fmt.Errorf("smt spec %q: want bench+bench[:policy][:flags]", s)
	}
	for _, name := range strings.Split(parts[0], "+") {
		name = strings.TrimSpace(name)
		if name == "" {
			return out, fmt.Errorf("smt spec %q: empty benchmark name", s)
		}
		if _, err := synth.ProfileByName(name); err != nil {
			return out, fmt.Errorf("smt spec %q: %w", s, err)
		}
		out.Contexts = append(out.Contexts, cpu.WorkloadRef{Bench: name})
	}
	if len(parts) > 1 {
		p, err := cpu.ParseFetchPolicy(strings.TrimSpace(parts[1]))
		if err != nil {
			return out, fmt.Errorf("smt spec %q: %w", s, err)
		}
		out.FetchPolicy = p
	}
	if len(parts) > 2 {
		for _, f := range strings.Split(parts[2], ",") {
			switch strings.TrimSpace(f) {
			case "pathcache":
				out.SharedPathCache = true
			case "pcache":
				out.SharedPCache = true
			case "uram":
				out.SharedMicroRAM = true
			case "pred":
				out.SharedPredictor = true
			case "all":
				out.SharedPathCache = true
				out.SharedPCache = true
				out.SharedMicroRAM = true
				out.SharedPredictor = true
			case "":
			default:
				return out, fmt.Errorf("smt spec %q: unknown sharing flag %q (want pathcache, pcache, uram, pred, all)", s, f)
			}
		}
	}
	return out, nil
}
