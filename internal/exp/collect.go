package exp

import (
	"context"
	"fmt"

	"dpbp/internal/results"
)

// Collect runs the named experiment — or all of them, sharing the
// Figure 7-9 timing runs — and returns the typed results as named
// sections in output order. "all" is the paper's full evaluation;
// "shootout", "smt" and "ablations" are extension studies outside it.
// Collect is the one dispatch point the dpbp CLI and the benchmark
// harness share, so the same experiment always yields the same sections
// and therefore renders to identical bytes.
func Collect(ctx context.Context, name string, o Options) ([]results.Section, error) {
	one := func(key string, v any, err error) ([]results.Section, error) {
		if err != nil {
			return nil, err
		}
		return []results.Section{{Key: key, Val: v}}, nil
	}
	switch name {
	case "table1":
		v, err := Table1(ctx, o)
		return one("table1", v, err)
	case "table2":
		v, err := Table2(ctx, o)
		return one("table2", v, err)
	case "fig6":
		v, err := Figure6(ctx, o)
		return one("figure6", v, err)
	case "fig7":
		v, err := Figure7(ctx, o)
		return one("figure7", v, err)
	case "fig8":
		v, err := Figure8(ctx, o)
		return one("figure8", v, err)
	case "fig9":
		v, err := Figure9(ctx, o)
		return one("figure9", v, err)
	case "perfect":
		v, err := Perfect(ctx, o)
		return one("perfect", v, err)
	case "guided":
		v, err := ProfileGuided(ctx, o)
		return one("guided", v, err)
	case "ablations":
		v, err := Ablations(ctx, o)
		return one("ablations", v, err)
	case "shootout":
		v, err := Shootout(ctx, o)
		return one("shootout", v, err)
	case "smt":
		v, err := SMT(ctx, o)
		return one("smt", v, err)
	case "all":
		var out []results.Section
		for _, single := range []string{"table1", "table2", "perfect", "fig6"} {
			sections, err := Collect(ctx, single, o)
			if err != nil {
				return nil, err
			}
			out = append(out, sections...)
		}
		// Figures 7-9 share one run set, so they share its errors too.
		runs, runErrs, err := RunFigure7Set(ctx, o)
		if err != nil {
			return nil, err
		}
		return append(out,
			results.Section{Key: "figure7", Val: &Figure7Result{Runs: runs, Errors: runErrs}},
			results.Section{Key: "figure8", Val: &Figure8Result{Runs: runs, Errors: runErrs}},
			results.Section{Key: "figure9", Val: &Figure9Result{Runs: runs, Errors: runErrs}}), nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}
