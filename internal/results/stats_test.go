package results

import "testing"

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %f, want 0", g)
	}
	if g := Geomean([]float64{2, 8}); g != 4 {
		t.Errorf("Geomean(2,8) = %f, want 4", g)
	}
	if g := Geomean([]float64{1, -1}); g != 0 {
		t.Errorf("Geomean with nonpositive = %f, want 0", g)
	}
}
