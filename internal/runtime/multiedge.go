package runtime

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"leime/internal/fleet"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/rpc"
)

// The device's edge fleet. Every non-pipelined device runs this one control
// loop over DeviceConfig.EdgeAddrs; a single edge is a fleet of one. At each
// slot boundary the device heartbeats every edge through a fleet registry
// (one synchronous round, before the slot's tasks launch) and folds their
// advertised backlog and capacity into the Lyapunov drift term
// (offload.SelectEdge). When another edge's drift-plus-penalty objective
// beats the current one by more than the hysteresis margin
// (offload.Hysteresis), the device migrates: an explicit registration at
// the target (re-solving its KKT allocation), then a best-effort
// unregistration at the origin. Tasks always go to the edge that was current
// when they launched; in-flight work survives migrations by degrading
// locally at worst.

// multiEdge is the device's fleet state: one reliable client per configured
// edge and the registry that holds each edge's last good heartbeat.
type multiEdge struct {
	d       *deviceRun
	addrs   []string
	index   map[string]int
	clients []*rpc.ReliableClient
	reg     *fleet.Registry
	cur     atomic.Int32 // index of the device's current (home) edge
}

// startMultiEdge dials the edge fleet and registers the device at its
// initial home (a stable hash of the ID spreads devices across edges).
func startMultiEdge(d *deviceRun) (*multiEdge, error) {
	cfg := d.cfg
	me := &multiEdge{
		d:     d,
		addrs: append([]string(nil), cfg.EdgeAddrs...),
		index: make(map[string]int, len(cfg.EdgeAddrs)),
	}
	for i, addr := range me.addrs {
		shaper, err := netem.NewShaper(scaleLink(cfg.Uplink, cfg.TimeScale), cfg.Seed^0xde^(int64(i)<<20))
		if err != nil {
			me.close()
			return nil, err
		}
		i := i
		me.clients = append(me.clients, rpc.DialReliable(addr, shaper, rpc.ReliableOptions{
			Retry:   cfg.Retry,
			Breaker: cfg.Breaker,
			// Re-establish the session on every (re)connection to the home
			// edge: a restarted edge has no tenant state, so the device
			// re-registers with its live rate estimate and adopts the fresh
			// share before any other call proceeds. Heartbeats reach every
			// edge in the fleet, and a bare probe must not create a tenancy
			// (and a KKT share) at an edge the device does not use.
			OnConnect: func(ctx context.Context, c *rpc.Client) error {
				if int(me.cur.Load()) != i {
					return nil
				}
				got, err := c.Call(ctx, RegisterReq{DeviceID: cfg.ID, FLOPS: cfg.FLOPS, ArrivalMean: d.rate(), Model: cfg.Model})
				if err != nil {
					return err
				}
				if resp, ok := got.(RegisterResp); ok && resp.ShareFLOPS > 0 {
					d.setShare(resp.ShareFLOPS)
				}
				return nil
			},
			OnRetry:         d.onRetry,
			OnBreakerChange: d.onBreakerChange,
			Seed:            cfg.Seed ^ 0x9e77 ^ (int64(i) << 16),
		}))
		me.index[addr] = i
	}
	me.reg = fleet.New(fleet.Config{}, me.probe)
	for _, addr := range me.addrs {
		me.reg.Join(addr)
	}

	// Pick the initial home: hash order, rotating past dead edges. The
	// first successful call registers via OnConnect; an edge that is down
	// or rejects the registration moves on to the next, and a fleet with
	// none left fails the run up front.
	h := fnv.New32a()
	_, _ = h.Write([]byte(cfg.ID))
	start := int(h.Sum32() % uint32(len(me.addrs)))
	var firstErr error
	registered := false
	for k := 0; k < len(me.addrs); k++ {
		idx := (start + k) % len(me.addrs)
		me.cur.Store(int32(idx))
		ctx, cancel := context.WithTimeout(context.Background(), rpc.DialTimeout)
		_, err := me.clients[idx].Call(ctx, QueueStatReq{DeviceID: cfg.ID})
		cancel()
		if err == nil {
			registered = true
			break
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if !registered {
		me.close()
		return nil, fmt.Errorf("runtime: register: %w", firstErr)
	}
	d.clientP.Store(me.clients[me.cur.Load()])
	d.tel.curEdge.Set(float64(me.cur.Load()))
	return me, nil
}

// probe is the registry's heartbeat: one identified HeartbeatReq per edge,
// so the reply carries this device's tenancy view alongside the edge-wide
// health.
func (me *multiEdge) probe(ctx context.Context, addr string) (fleet.Health, error) {
	i, ok := me.index[addr]
	if !ok {
		return fleet.Health{}, fmt.Errorf("runtime: unknown fleet member %q", addr)
	}
	return heartbeat(ctx, me.clients[i], me.d.cfg.ID)
}

// step runs one decision epoch: heartbeat every edge once, build the
// candidate edge states, select the drift-minimizing edge, migrate if the
// improvement clears the hysteresis margin, and return the offloading ratio
// against the chosen edge.
//
// A candidate has answered at least one heartbeat, is not down and has a
// closed breaker; it is judged on its last good heartbeat, so one slow probe
// (fewer misses than the registry's SuspectAfter) does not evict the home
// edge. While the breaker is half-open the heartbeat doubles as its recovery
// probe. No candidate means device-only (x = 0).
func (me *multiEdge) step(ctrl *offload.Controller, policy offload.Policy, dev offload.Device, arrivals, localQ float64) float64 {
	ctx, cancel := me.d.controlCtx()
	me.reg.Poll(ctx)
	cancel()

	cur := int(me.cur.Load())
	var cands []int
	var states []offload.EdgeState
	for i, addr := range me.addrs {
		m, ok := me.reg.Member(addr)
		if !ok || m.Beats == 0 || m.State == fleet.StateDown {
			continue
		}
		if me.clients[i].Breaker().State() != rpc.BreakerClosed {
			continue
		}
		st := offload.EdgeState{QueueSec: m.Health.BacklogSec}
		if i == cur {
			// Resident view: the edge reports this tenant's solved share
			// and first-block backlog directly.
			st.ShareFLOPS = m.Health.ShareFLOPS
			if st.ShareFLOPS <= 0 {
				st.ShareFLOPS = me.d.share()
			}
			st.Backlog = float64(m.Health.PendingFirstBlock)
		} else {
			// Non-resident estimate: joining adds one tenant to the KKT
			// allocation, so roughly an equal split with one more head.
			st.ShareFLOPS = m.Health.FLOPS / float64(m.Health.Tenants+1)
		}
		cands = append(cands, i)
		states = append(states, st)
	}

	best, evals := ctrl.SelectEdge(dev, arrivals, localQ, states)
	if best < 0 {
		return 0
	}
	curPos := -1
	for p, i := range cands {
		if i == cur {
			curPos = p
		}
	}
	best = offload.Hysteresis(evals, best, curPos)
	if target := cands[best]; target != cur {
		if me.migrate(cur, target) {
			states[best].ShareFLOPS = me.d.share()
		} else if curPos >= 0 {
			best = curPos
		} else {
			return 0
		}
	}
	slot := offload.Slot{
		Arrivals:       arrivals,
		State:          offload.State{Q: localQ, H: states[best].Backlog},
		EdgeShareFLOPS: states[best].ShareFLOPS,
	}
	return policy.Decide(ctrl, dev, slot)
}

// migrate moves the device's tenancy: explicit registration at the target
// (the edge re-solves its KKT allocation and returns the fresh share), then
// a best-effort unregistration at the origin so its share redistributes.
// On failure the device stays where it was.
func (me *multiEdge) migrate(from, to int) bool {
	// Point home at the target first so the client's OnConnect registers
	// there if the dial races this explicit registration.
	me.cur.Store(int32(to))
	ctx, cancel := me.d.controlCtx()
	got, err := me.clients[to].Call(ctx, RegisterReq{
		DeviceID: me.d.cfg.ID, FLOPS: me.d.cfg.FLOPS, ArrivalMean: me.d.rate(), Model: me.d.cfg.Model,
	})
	cancel()
	if err != nil {
		me.cur.Store(int32(from))
		return false
	}
	if resp, ok := got.(RegisterResp); ok && resp.ShareFLOPS > 0 {
		me.d.setShare(resp.ShareFLOPS)
	}
	me.d.clientP.Store(me.clients[to])
	me.d.tel.migrations.Inc()
	me.d.tel.curEdge.Set(float64(to))
	me.d.mu.Lock()
	me.d.stats.Migrations++
	me.d.mu.Unlock()
	ctx, cancel = me.d.controlCtx()
	_, _ = me.clients[from].Call(ctx, UnregisterReq{DeviceID: me.d.cfg.ID})
	cancel()
	return true
}

// close closes every edge client.
func (me *multiEdge) close() {
	for _, c := range me.clients {
		_ = c.Close()
	}
}
