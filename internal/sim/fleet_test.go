package sim

import (
	"reflect"
	"testing"

	"leime/internal/offload"
	"leime/internal/telemetry"
)

// baseFleetConfig is baseEventConfig spread over nEdges identical edges.
func baseFleetConfig(nDevices, nEdges int, rate float64) EventConfig {
	cfg := baseEventConfig(nDevices, rate)
	cfg.Edges = nEdges
	cfg.Seed = 42
	return cfg
}

func TestEventConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*EventConfig)
		ok     bool
	}{
		{"three-edge fleet", func(*EventConfig) {}, true},
		{"zero edges means one", func(c *EventConfig) { c.Edges = 0 }, true},
		{"kill with survivors", func(c *EventConfig) { c.KillAtSlot = 10 }, true},
		{"no devices", func(c *EventConfig) { c.Devices = nil }, false},
		{"bad model", func(c *EventConfig) { c.Model.Sigma[2] = 0.5 }, false},
		{"zero-FLOPS edge", func(c *EventConfig) { c.EdgeFLOPS = 0 }, false},
		{"zero-FLOPS cloud", func(c *EventConfig) { c.CloudFLOPS = 0 }, false},
		{"zero edge-cloud bandwidth", func(c *EventConfig) { c.EdgeCloud.BandwidthBps = 0 }, false},
		{"zero slot length", func(c *EventConfig) { c.TauSec = 0 }, false},
		{"zero V", func(c *EventConfig) { c.V = 0 }, false},
		{"warmup covers horizon", func(c *EventConfig) { c.WarmupSlots = c.Slots }, false},
		{"bad device", func(c *EventConfig) { c.Devices[1].Device.FLOPS = 0 }, false},
		{"kill without a survivor", func(c *EventConfig) { c.Edges, c.KillAtSlot = 1, 10 }, false},
		{"negative kill slot", func(c *EventConfig) { c.KillAtSlot = -1 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseFleetConfig(4, 3, 5)
			tc.mutate(&cfg)
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if _, err := RunEvents(cfg); (err == nil) != tc.ok {
				t.Errorf("RunEvents error %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestRunFleetDeterministic pins seed-replay: identical configurations must
// produce identical results, migrations and all.
func TestRunFleetDeterministic(t *testing.T) {
	a, err := RunEvents(baseFleetConfig(6, 3, 6))
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	b, err := RunEvents(baseFleetConfig(6, 3, 6))
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n a %+v\n b %+v", a, b)
	}
}

// TestRunFleetSpreadsLoad drives enough offloading that every edge in the
// fleet serves first blocks, and conservation holds across migrations.
func TestRunFleetSpreadsLoad(t *testing.T) {
	cfg := baseFleetConfig(6, 3, 8)
	res, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if res.Completed != res.Generated {
		t.Fatalf("conservation: %d != %d", res.Completed, res.Generated)
	}
	served := 0
	for e, n := range res.PerEdgeServed {
		if n > 0 {
			served++
		} else {
			t.Logf("edge %d served nothing", e)
		}
	}
	if served < 2 {
		t.Errorf("only %d of %d edges served work; selection never spread load", served, cfg.Edges)
	}
	if res.TCT.Count() == 0 || res.TCT.Mean() <= 0 {
		t.Errorf("degenerate TCT summary: %+v", res.TCT)
	}
}

// TestRunFleetSingleEdgeDegeneratesCleanly pins the E=1 boundary: a fleet
// of one is the single-edge model exactly — nowhere to migrate, and the
// same result as leaving Edges unset.
func TestRunFleetSingleEdgeDegeneratesCleanly(t *testing.T) {
	res, err := RunEvents(baseFleetConfig(3, 1, 6))
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if res.Migrations != 0 {
		t.Errorf("%d migrations with a single edge", res.Migrations)
	}
	if res.Completed != res.Generated {
		t.Errorf("conservation: %d != %d", res.Completed, res.Generated)
	}
	if len(res.PerEdgeServed) != 1 || res.PerEdgeServed[0] == 0 {
		t.Errorf("PerEdgeServed = %v, want one busy edge", res.PerEdgeServed)
	}
	unset, err := RunEvents(baseFleetConfig(3, 0, 6))
	if err != nil {
		t.Fatalf("RunEvents (Edges unset): %v", err)
	}
	if !reflect.DeepEqual(res, unset) {
		t.Error("Edges=1 and Edges=0 diverged; both must be the single-edge model")
	}
}

// TestRunFleetKillEdgeMigratesAndConserves is the sim chaos experiment:
// killing one of three edges mid-run forces its residents onto survivors
// with zero lost tasks.
func TestRunFleetKillEdgeMigratesAndConserves(t *testing.T) {
	cfg := baseFleetConfig(6, 3, 6)
	cfg.KillAtSlot = cfg.Slots / 2
	res, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if res.Completed != res.Generated {
		t.Fatalf("conservation after kill: %d != %d", res.Completed, res.Generated)
	}
	// Devices 0 and 3 start homed at edge 0 (i mod 3); both must leave it.
	if res.Migrations < 2 {
		t.Errorf("%d migrations; killed edge's residents never re-selected", res.Migrations)
	}
	baseline, err := RunEvents(baseFleetConfig(6, 3, 6))
	if err != nil {
		t.Fatalf("RunEvents baseline: %v", err)
	}
	if res.PerEdgeServed[0] >= baseline.PerEdgeServed[0] && baseline.PerEdgeServed[0] > 0 {
		t.Errorf("killed edge served %d first blocks, no fewer than the %d of an unkilled run",
			res.PerEdgeServed[0], baseline.PerEdgeServed[0])
	}
}

// TestRunFleetPolicyUnderKillConserves runs the federation with the edge
// control plane — a backlog budget and deadline admission — through the
// kill: refused work must fall back or shed, never vanish, and every task
// still closes exactly one traced lifecycle.
func TestRunFleetPolicyUnderKillConserves(t *testing.T) {
	cfg := baseFleetConfig(6, 3, 8)
	eOnly := offload.EdgeOnly() // push every task through edge admission
	for i := range cfg.Devices {
		cfg.Devices[i].Policy = &eOnly
	}
	cfg.EdgeFLOPS = 2e10
	cfg.KillAtSlot = cfg.Slots / 2
	cfg.DeadlineSec = 0.6
	cfg.EdgePolicy = Policy{MaxBacklogSec: 0.4, DeadlineAdmission: true}
	cfg.Tracer = telemetry.NewTracer(1 << 18)
	res, err := RunEvents(cfg)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if res.Completed != res.Generated {
		t.Fatalf("conservation: generated %d, completed %d", res.Generated, res.Completed)
	}
	if res.Fallbacks == 0 || res.Sheds == 0 {
		t.Fatalf("admission too lenient: %d fallbacks, %d sheds; want both", res.Fallbacks, res.Sheds)
	}
	if res.Migrations < 2 {
		t.Errorf("%d migrations; killed edge's residents never re-selected", res.Migrations)
	}
	if sum := res.ExitCounts[0] + res.ExitCounts[1] + res.ExitCounts[2]; sum != res.Completed-res.Sheds {
		t.Errorf("exit counts %v sum to %d, want Completed-Sheds = %d", res.ExitCounts, sum, res.Completed-res.Sheds)
	}
	if cfg.Tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; raise capacity", cfg.Tracer.Dropped())
	}
	roots := 0
	for _, sp := range cfg.Tracer.Spans() {
		if sp.Name == "task" {
			roots++
		}
	}
	if roots != res.Generated {
		t.Errorf("%d task spans for %d generated tasks", roots, res.Generated)
	}
	t.Logf("generated %d, fallbacks %d, sheds %d, migrations %d, per-edge %v",
		res.Generated, res.Fallbacks, res.Sheds, res.Migrations, res.PerEdgeServed)
}
