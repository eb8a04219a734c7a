package configplumb_test

import (
	"testing"

	"dpbp/internal/analysis/analysistest"
	"dpbp/internal/analysis/configplumb"
)

func TestUnreadFieldsAndMagicNumbers(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), configplumb.Analyzer, "dpbp/internal/cpu")
}

// TestMagicNumbersFromPackageConstants: a package whose sizes are
// constants rather than Default* values still has its literal copies
// flagged.
func TestMagicNumbersFromPackageConstants(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), configplumb.Analyzer, "dpbp/internal/mem")
}
