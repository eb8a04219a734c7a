package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunProfilesBenchmark(t *testing.T) {
	var b bytes.Buffer
	if err := run(&b, "comp", 60_000); err != nil {
		t.Fatalf("run(comp) = %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"Path characterisation (Table 1 slice):",
		"Coverage (Table 2 slice):",
		"n=4", "T=0.05",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	var b bytes.Buffer
	if err := run(&b, "nope", 1_000); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if b.Len() != 0 {
		t.Errorf("failed run wrote output: %q", b.String())
	}
}

// TestRunRefusesBudgetAboveBound: a budget the profiler's 32-bit path
// counters cannot count is an error, not a panic, and prints nothing.
func TestRunRefusesBudgetAboveBound(t *testing.T) {
	var b bytes.Buffer
	if err := run(&b, "comp", 1<<32); err == nil || !strings.Contains(err.Error(), "4294967295") {
		t.Errorf("run(comp, 1<<32) = %v, want an error naming the bound", err)
	}
	if b.Len() != 0 {
		t.Errorf("refused run wrote output: %q", b.String())
	}
}
