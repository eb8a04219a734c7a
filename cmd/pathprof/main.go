// Command pathprof profiles one benchmark's control-flow paths against the
// baseline predictor and prints its Table 1/Table 2 characterisation.
//
// Usage:
//
//	pathprof -bench gcc [-insts 1000000]
//
// -insts may not exceed 4294967295 (pathprof.MaxProfileInsts): a
// profile's path counters are 32 bits wide, so a larger budget exits 1
// before the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dpbp"
)

func main() {
	bench := flag.String("bench", "gcc", "benchmark name")
	insts := flag.Uint64("insts", 1_000_000, "instruction budget (at most 4294967295)")
	flag.Parse()

	if err := run(os.Stdout, *bench, *insts); err != nil {
		fmt.Fprintln(os.Stderr, "pathprof:", err)
		os.Exit(1)
	}
}

// run profiles one benchmark and writes its characterisation to w. It is
// the whole CLI behind flag parsing, so tests can drive it directly.
func run(w io.Writer, bench string, insts uint64) error {
	wl, err := dpbp.NewWorkload(bench)
	if err != nil {
		return err
	}
	cfg := dpbp.PathProfileConfig{MaxInsts: insts}
	if err := cfg.Validate(); err != nil {
		return err
	}
	p := dpbp.Profile(wl, cfg)
	fmt.Fprintln(w, p)

	fmt.Fprintln(w, "\nPath characterisation (Table 1 slice):")
	for _, row := range p.Table1([]float64{0.05, 0.10, 0.15}) {
		fmt.Fprintf(w, "  n=%-2d unique=%-8d avgScope=%-8.2f difficult@.05=%-7d @.10=%-7d @.15=%d\n",
			row.N, row.UniquePaths, row.AvgScope,
			row.DifficultAt[0.05], row.DifficultAt[0.10], row.DifficultAt[0.15])
	}

	fmt.Fprintln(w, "\nCoverage (Table 2 slice):")
	for _, row := range p.Table2([]float64{0.05, 0.10, 0.15}) {
		fmt.Fprintf(w, "  T=%.2f  branches: mis%%=%5.1f exe%%=%5.1f", row.T, row.Branch.MisPct, row.Branch.ExePct)
		for _, n := range []int{4, 10, 16} {
			c := row.ByN[n]
			fmt.Fprintf(w, "  n=%d: mis%%=%5.1f exe%%=%5.1f", n, c.MisPct, c.ExePct)
		}
		fmt.Fprintln(w)
	}
	return nil
}
