package determinism_test

import (
	"testing"

	"leime/internal/analysis/analysistest"
	"leime/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer, "maporder")
}
