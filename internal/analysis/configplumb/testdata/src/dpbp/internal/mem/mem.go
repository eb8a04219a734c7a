// Package mem is a fixture with no Default* function: its sizes are
// package constants, because nothing varies them, and a literal copy of
// one goes stale exactly like a copy of a Default* value.
package mem

// tableSize is a size no caller varies. Declarations name their values,
// so this one is exempt.
const tableSize = 4096

const (
	lineWords  = 8   // below MinMagic: not distinctive
	dramCycles = 100 // named and read below: clean
)

// New reads both constants by name.
func New() ([]uint64, int) {
	return make([]uint64, tableSize*lineWords), dramCycles
}

// Entries copies tableSize as a literal.
func Entries() int {
	return 4096 // want `literal 4096 duplicates the mem value set in const tableSize`
}
