package uthreadtest

import (
	"reflect"
	"testing"

	"dpbp/internal/isa"
)

// TestRandProgramDeterministic checks the property the microthread tests
// rely on: a seed always yields the same program, which ends in a
// conditional branch to a halt loop, and seeds differ.
func TestRandProgramDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, withStores := range []bool{false, true} {
			a, b := RandProgram(seed, withStores), RandProgram(seed, withStores)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d stores %v: two programs differ", seed, withStores)
			}
			n := len(a.Code)
			if n < 2 || !a.Code[n-2].IsCondBranch() || a.Code[n-1].Op != isa.OpJmp || a.Code[n-1].Target != isa.Addr(n-1) {
				t.Fatalf("seed %d stores %v: program does not end in a branch to a halt loop: %v", seed, withStores, a.Code[max(0, n-2):])
			}
		}
	}
	if reflect.DeepEqual(RandProgram(1, true).Code, RandProgram(2, true).Code) {
		t.Error("seeds 1 and 2 gave the same code")
	}
}
