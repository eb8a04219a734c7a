package exp

// Default instruction budgets, applied when the corresponding Options
// field is zero. cmd/dpbp leaves its flags at zero so these are the
// single source of truth.
const (
	defaultTimingInsts  = 400_000
	defaultProfileInsts = 1_000_000
)
