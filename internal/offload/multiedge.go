package offload

import "math"

// Multi-edge extension of the Lyapunov controller: instead of one fixed
// edge, the device evaluates the drift-plus-penalty objective (eq. 19)
// against every candidate edge and routes the slot's offloaded work to the
// minimizer. The per-edge inputs are exactly the paper's signals — the
// device's own backlog H_{i,e} at that edge and its (actual or would-be)
// KKT share of the edge's FLOPS — plus one federation term: the edge-wide
// queued work advertised in heartbeats, charged as extra expected wait per
// offloaded task so congested edges price themselves out even when the
// device holds a generous share there.

// EdgeState is one candidate edge as the selection rule sees it, built from
// the edge's last heartbeat.
type EdgeState struct {
	// ShareFLOPS is the edge compute the device holds there (resident
	// tenants) or would likely hold after registering (non-residents
	// estimate F^e / (tenants+1)).
	ShareFLOPS float64
	// Backlog is H_{i,e}: this device's first-block tasks pending at the
	// edge. Zero for edges the device is not resident on.
	Backlog float64
	// QueueSec is the edge-wide queued work in seconds advertised in the
	// last heartbeat — the congestion penalty term.
	QueueSec float64
}

// EdgeEval is the outcome of evaluating one candidate edge.
type EdgeEval struct {
	// Ratio is the slot's offloading decision x were this edge chosen.
	Ratio float64
	// Objective is the drift-plus-penalty value at that ratio, including
	// the congestion penalty. Lower is better.
	Objective float64
}

// SelectEdge evaluates every candidate edge under this slot's arrivals and
// local queue, and returns the index of the objective-minimizing edge plus
// the per-edge evaluations (so callers can apply switching hysteresis using
// the objective of the edge they currently occupy). Ties break toward the
// lowest index, keeping selection deterministic for equal inputs. With no
// candidates it returns -1 and a nil slice.
func (c *Controller) SelectEdge(dev Device, arrivals, localQ float64, edges []EdgeState) (int, []EdgeEval) {
	if len(edges) == 0 {
		return -1, nil
	}
	evals := make([]EdgeEval, len(edges))
	best := 0
	for i, e := range edges {
		slot := Slot{
			Arrivals:       arrivals,
			State:          State{Q: localQ, H: e.Backlog},
			EdgeShareFLOPS: e.ShareFLOPS,
		}
		x := c.Decide(dev, slot)
		costs := c.Eval(dev, slot, x)
		// Congestion penalty: each of the x*arrivals tasks routed to this
		// edge expects to wait behind QueueSec seconds of other tenants'
		// work, priced with the same V that weights latency in eq. 19.
		obj := costs.Objective + c.cfg.V*e.QueueSec*x*arrivals
		evals[i] = EdgeEval{Ratio: x, Objective: obj}
		if obj < evals[best].Objective {
			best = i
		}
	}
	return best, evals
}

// SwitchMargin is the migration hysteresis of edge selection: a device
// leaves the edge it occupies only when the best candidate improves the
// selection objective by more than this fraction of the resident's
// objective. The non-resident share is an optimistic estimate, so a move
// must clearly pay for itself.
const SwitchMargin = 0.05

// Hysteresis applies SwitchMargin to a SelectEdge outcome. best and evals
// are SelectEdge's results; resident is the position among the same
// candidates of the edge the device occupies now, or -1 when that edge is
// not a candidate (dead, or never joined). It returns the candidate
// position to use — the resident unless best beats it by more than the
// margin — or -1 when there are no candidates.
func Hysteresis(evals []EdgeEval, best, resident int) int {
	if best < 0 || resident < 0 || best == resident {
		return best
	}
	cur := evals[resident].Objective
	if evals[best].Objective >= cur-SwitchMargin*math.Abs(cur) {
		return resident
	}
	return best
}
