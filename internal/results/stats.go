package results

import "math"

// Geomean returns the geometric mean of xs, or 0 when xs is empty or
// holds a non-positive value, neither of which has a mean speed-up; a
// section with no completed row reports no geomean at all. Both the
// experiment harness and the renderers aggregate speedups with it;
// keeping one implementation on the data model guarantees the rendered
// geomeans match the computed ones bit for bit.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p := 1.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		p *= x
	}
	return math.Pow(p, 1/float64(len(xs)))
}
