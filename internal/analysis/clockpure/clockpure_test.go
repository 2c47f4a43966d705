package clockpure_test

import (
	"testing"

	"leime/internal/analysis/analysistest"
	"leime/internal/analysis/clockpure"
)

// TestFixtures loads the helper dependency and the model-clock fixture in
// one run, so facts about clockhelp's functions are in the store before
// clocky is analyzed (analysis.Run orders by imports).
func TestFixtures(t *testing.T) {
	analysistest.Run(t, "testdata", clockpure.Analyzer, "clockhelp", "clocky")
}

// TestPackagesPinned pins the model-clock set: a PR widening or shrinking
// coverage must edit this list consciously.
func TestPackagesPinned(t *testing.T) {
	want := map[string]bool{
		"leime/internal/cluster":     true,
		"leime/internal/confidence":  true,
		"leime/internal/control":     true,
		"leime/internal/dataset":     true,
		"leime/internal/exitsetting": true,
		"leime/internal/loadgen":     true,
		"leime/internal/metrics":     true,
		"leime/internal/model":       true,
		"leime/internal/offload":     true,
		"leime/internal/partition":   true,
		"leime/internal/scenario":    true,
		"leime/internal/sim":         true,
		"leime/internal/tensor":      true,
		"leime/internal/trace":       true,
		"clocky":                     true,
	}
	if len(clockpure.Packages) != len(want) {
		t.Fatalf("Packages = %v, want exactly %v", clockpure.Packages, want)
	}
	for _, p := range clockpure.Packages {
		if !want[p] {
			t.Errorf("unexpected model-clock package %q", p)
		}
	}
}
