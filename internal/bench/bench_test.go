package bench

import (
	"fmt"
	"strings"
	"testing"

	"leime/internal/cluster"
	"leime/internal/model"
)

// TestAllExperimentsRunQuick checks every experiment's section of the
// serial quick suite (shared with TestRunAllParallelMatchesSerial, so the
// suite runs once): each must render a table of substance.
func TestAllExperimentsRunQuick(t *testing.T) {
	suite := serialQuickOutput(t)
	all := All()
	for i, e := range all {
		e := e
		header := fmt.Sprintf("=== %s: %s\n", e.ID, e.Title)
		start := strings.Index(suite, header)
		end := len(suite)
		if i+1 < len(all) {
			end = strings.Index(suite, fmt.Sprintf("=== %s: ", all[i+1].ID))
		}
		t.Run(e.ID, func(t *testing.T) {
			if start < 0 || end < start {
				t.Fatalf("no %q section in the serial suite output", strings.TrimSpace(header))
			}
			out := suite[start+len(header) : end]
			if len(out) < 100 {
				t.Errorf("suspiciously short output (%d bytes):\n%s", len(out), out)
			}
			if !strings.Contains(out, "-") { // every experiment prints a table
				t.Errorf("no table rendered:\n%s", out)
			}
		})
	}
}

func TestByID(t *testing.T) {
	for _, want := range []string{"motivation", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b", "fig11"} {
		e, err := ByID(want)
		if err != nil {
			t.Fatalf("ByID(%q): %v", want, err)
		}
		if e.ID != want {
			t.Errorf("ByID(%q).ID = %q", want, e.ID)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", want)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestParamsForNeurosurgeonDisablesExits(t *testing.T) {
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		t.Fatalf("calibrated: %v", err)
	}
	params, err := paramsFor(p, sigma, 3, 10, false)
	if err != nil {
		t.Fatalf("paramsFor: %v", err)
	}
	if params.Sigma[0] != 0 || params.Sigma[1] != 0 || params.Sigma[2] != 1 {
		t.Errorf("Neurosurgeon sigma = %v, want [0 0 1]", params.Sigma)
	}
	withExits, err := paramsFor(p, sigma, 3, 10, true)
	if err != nil {
		t.Fatalf("paramsFor: %v", err)
	}
	// Without classifiers the first two blocks must be slightly cheaper.
	if params.Mu[0] >= withExits.Mu[0] || params.Mu[1] >= withExits.Mu[1] {
		t.Errorf("classifier FLOPs not removed: %v vs %v", params.Mu, withExits.Mu)
	}
	if err := params.Validate(); err != nil {
		t.Errorf("Neurosurgeon params invalid: %v", err)
	}
}

func TestSchemeParamsAllSchemes(t *testing.T) {
	p := model.ResNet34()
	sigma, err := calibrated(p)
	if err != nil {
		t.Fatalf("calibrated: %v", err)
	}
	env := cluster.TestbedEnv(cluster.JetsonNano)
	for _, sc := range paperSchemes() {
		params, e1, e2, err := schemeParams(sc, p, sigma, env)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if !(1 <= e1 && e1 < e2 && e2 < p.NumExits()) {
			t.Errorf("%s: bad exits (%d, %d)", sc.name, e1, e2)
		}
		if err := params.Validate(); err != nil {
			t.Errorf("%s: invalid params: %v", sc.name, err)
		}
	}
}

func TestLEIMEWinsQuickFig7Point(t *testing.T) {
	// Shape assertion behind Fig. 7: under a poor network LEIME beats every
	// baseline in the event simulator.
	p := model.InceptionV3()
	sigma, err := calibrated(p)
	if err != nil {
		t.Fatalf("calibrated: %v", err)
	}
	env := cluster.TestbedEnv(cluster.RaspberryPi3B).
		WithDeviceEdge(cluster.Path{BandwidthBps: cluster.Mbps(4), LatencySec: 0.1})
	var leime float64
	for _, sc := range paperSchemes() {
		tct, err := schemeTCT(sc, p, sigma, env, fig7Workload())
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if sc.name == "LEIME" {
			leime = tct
			continue
		}
		if tct <= leime {
			t.Errorf("%s (%v) beat LEIME (%v) under a poor network", sc.name, tct, leime)
		}
	}
}
