package offload

import "testing"

// TestSelectEdgePrefersMoreCapacity asserts that with identical queues the
// selection routes to the edge offering the larger share.
func TestSelectEdgePrefersMoreCapacity(t *testing.T) {
	c := testController(t, 1e4)
	dev := testDevice()
	edges := []EdgeState{
		{ShareFLOPS: 1e9},
		{ShareFLOPS: 6e9},
	}
	best, evals := c.SelectEdge(dev, 10, 0, edges)
	if best != 1 {
		t.Fatalf("best = %d (evals %+v), want the higher-capacity edge 1", best, evals)
	}
	if len(evals) != 2 {
		t.Fatalf("evals len = %d, want 2", len(evals))
	}
	if evals[1].Objective >= evals[0].Objective {
		t.Errorf("objective of faster edge %.4g not below slower edge %.4g",
			evals[1].Objective, evals[0].Objective)
	}
}

// TestSelectEdgeCongestionPenalty asserts the heartbeat backlog term steers
// selection away from a congested edge even when shares are equal.
func TestSelectEdgeCongestionPenalty(t *testing.T) {
	c := testController(t, 1e4)
	dev := testDevice()
	edges := []EdgeState{
		{ShareFLOPS: 4e9, QueueSec: 5},
		{ShareFLOPS: 4e9, QueueSec: 0},
	}
	best, evals := c.SelectEdge(dev, 10, 0, edges)
	if best != 1 {
		t.Fatalf("best = %d (evals %+v), want the idle edge 1", best, evals)
	}
	// The penalty only bites when work is actually offloaded.
	if evals[0].Ratio > 0 && evals[0].Objective <= evals[1].Objective {
		t.Errorf("congested edge objective %.4g not above idle edge %.4g",
			evals[0].Objective, evals[1].Objective)
	}
}

// TestSelectEdgeOwnBacklogIsDriftTerm asserts H_{i,e} flows into the
// per-edge drift exactly as the single-edge controller would see it.
func TestSelectEdgeOwnBacklogIsDriftTerm(t *testing.T) {
	c := testController(t, 1e4)
	dev := testDevice()
	edges := []EdgeState{
		{ShareFLOPS: 4e9, Backlog: 40},
		{ShareFLOPS: 4e9, Backlog: 0},
	}
	best, evals := c.SelectEdge(dev, 10, 0, edges)
	if best != 1 {
		t.Fatalf("best = %d (evals %+v), want the backlog-free edge 1", best, evals)
	}
	// Per-edge evaluation must match the single-edge controller on the
	// same slot: SelectEdge is the same rule, ranged over candidates.
	slot := Slot{Arrivals: 10, State: State{Q: 0, H: 40}, EdgeShareFLOPS: 4e9}
	x := c.Decide(dev, slot)
	if evals[0].Ratio != x {
		t.Errorf("per-edge ratio %.4g != single-edge Decide %.4g", evals[0].Ratio, x)
	}
	if want := c.Eval(dev, slot, x).Objective; evals[0].Objective != want {
		t.Errorf("per-edge objective %.4g != single-edge Eval %.4g (no congestion term)", evals[0].Objective, want)
	}
}

// TestSelectEdgeDeterministicTieBreak asserts equal edges resolve to the
// lowest index, and the empty candidate set returns -1.
func TestSelectEdgeDeterministicTieBreak(t *testing.T) {
	c := testController(t, 1e4)
	dev := testDevice()
	edges := []EdgeState{{ShareFLOPS: 4e9}, {ShareFLOPS: 4e9}, {ShareFLOPS: 4e9}}
	for i := 0; i < 10; i++ {
		best, _ := c.SelectEdge(dev, 10, 2, edges)
		if best != 0 {
			t.Fatalf("tie broke to %d, want 0", best)
		}
	}
	if best, evals := c.SelectEdge(dev, 10, 2, nil); best != -1 || evals != nil {
		t.Errorf("empty candidates: best=%d evals=%v, want -1, nil", best, evals)
	}
}

// TestHysteresis pins the one migration rule both the runtime device and
// the event simulator apply: a candidate at or within SwitchMargin of the
// resident's objective leaves the device where it is, a clearly better one
// moves it, and an empty candidate set selects nothing.
func TestHysteresis(t *testing.T) {
	// A resident objective of -100 puts the margin at 5: moving needs an
	// objective strictly below -105.
	evals := func(best float64) []EdgeEval {
		return []EdgeEval{{Objective: -100}, {Objective: best}}
	}
	for _, tc := range []struct {
		name           string
		evals          []EdgeEval
		best, resident int
		want           int
	}{
		{"improvement at the margin stays", evals(-105), 1, 0, 0},
		{"improvement below the margin stays", evals(-102), 1, 0, 0},
		{"improvement above the margin moves", evals(-106), 1, 0, 1},
		{"positive objective uses its magnitude", []EdgeEval{{Objective: 100}, {Objective: 96}}, 1, 0, 0},
		{"resident already best", evals(-90), 0, 0, 0},
		{"no resident candidate takes the best", evals(-101), 1, -1, 1},
		{"no candidates returns -1", nil, -1, -1, -1},
		{"no candidates with a stale resident returns -1", nil, -1, 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := Hysteresis(tc.evals, tc.best, tc.resident); got != tc.want {
				t.Errorf("Hysteresis(%v, best=%d, resident=%d) = %d, want %d",
					tc.evals, tc.best, tc.resident, got, tc.want)
			}
		})
	}
}
