package exp

import (
	"context"
	"fmt"
	"strings"

	"dpbp/internal/cpu"
	"dpbp/internal/results"
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
// the shared variant's flags. SMT runs are not cached: the study runs
// each (mix, sharing) unit once, as one row named "mix/sharing". A
// failed unit costs only its own variant of its mix, recorded in Errors
// under the unit's name.
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
	// Units run mix-major: unit ui is variant ui%len(variants) of mix
	// ui/len(variants).
	var units []string
	for mi, names := range mixes {
		res.Mixes[mi] = results.SMTMix{
			Name:     strings.Join(names, "+"),
			Variants: make([]results.SMTVariant, 0, len(variants)),
		}
		for _, v := range variants {
			units = append(units, res.Mixes[mi].Name+"/"+sharingName(v))
		}
	}

	type mixVariant struct {
		mix int
		v   results.SMTVariant
	}
	done, runErrs := rows(ctx, o, units, func(ctx context.Context, ui int) (mixVariant, error) {
		mi, vi := ui/len(variants), ui%len(variants)
		names := mixes[mi]
		progs, err := o.programs(names)
		if err != nil {
			return mixVariant{}, err
		}
		cfg := timingConfig(o, cpu.ModeMicrothread, true, true)
		cfg.SMT = variants[vi]
		cfg.SMT.FetchPolicy = policy
		cfg.SMT.Contexts = make([]cpu.WorkloadRef, len(names))
		for i, name := range names {
			cfg.SMT.Contexts[i] = cpu.WorkloadRef{Bench: name}
		}
		if o.Trace != nil {
			cfg.Obs = o.Trace.StartRun(units[ui])
		}
		run, err := cpu.RunSMT(ctx, progs, cfg)
		if err != nil {
			return mixVariant{}, err
		}

		v := results.SMTVariant{
			Sharing:    sharingName(variants[vi]),
			MachineIPC: run.IPC(),
			Cycles:     run.Cycles,
			Contexts:   make([]results.SMTContextRow, len(run.Contexts)),
		}
		for i, c := range run.Contexts {
			soloCfg := cfg
			soloCfg.SMT = cpu.SMTConfig{}
			solo, err := timedRun(ctx, o, progs[i], "microthread+prune", soloCfg)
			if err != nil {
				return mixVariant{}, err
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
		return mixVariant{mi, v}, nil
	})
	for _, r := range done {
		res.Mixes[r.mix].Variants = append(res.Mixes[r.mix].Variants, r.v)
	}
	res.Errors = runErrs
	return res, nil
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
