package runtime

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"leime/internal/fleet"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/rpc"
)

// Device-side edge federation. The device dials every edge in
// DeviceConfig.EdgeAddrs, heartbeats them through a fleet registry, and each
// decision epoch folds their advertised backlog and capacity into the
// Lyapunov drift term (offload.SelectEdge). When another edge's
// drift-plus-penalty objective beats the current one by more than the
// hysteresis margin (offload.Hysteresis), the device migrates: an explicit
// registration at the target (re-solving its KKT allocation), then a
// best-effort unregistration at the origin. Tasks always go to the edge that was current when they
// launched; in-flight work survives migrations by degrading locally at
// worst.

// multiEdge is the device's federation state: one reliable client and one
// cached heartbeat view per configured edge.
type multiEdge struct {
	d       *deviceRun
	addrs   []string
	index   map[string]int
	clients []*rpc.ReliableClient
	reg     *fleet.Registry
	cur     atomic.Int32 // index of the device's current (home) edge

	mu    sync.Mutex
	views []HeartbeatResp // last heartbeat per edge
	fresh []bool          // views[i] valid (heartbeat succeeded at least once, latest did)

	stop context.CancelFunc
	wg   sync.WaitGroup
}

// startMultiEdge dials the edge fleet, registers the device at its initial
// home (a stable hash of the ID spreads devices across edges), warms the
// health views and starts the background heartbeat poller.
func startMultiEdge(d *deviceRun) (*multiEdge, error) {
	cfg := d.cfg
	me := &multiEdge{
		d:     d,
		addrs: append([]string(nil), cfg.EdgeAddrs...),
		index: make(map[string]int, len(cfg.EdgeAddrs)),
		views: make([]HeartbeatResp, len(cfg.EdgeAddrs)),
		fresh: make([]bool, len(cfg.EdgeAddrs)),
	}
	for i, addr := range me.addrs {
		shaper, err := netem.NewShaper(scaleLink(cfg.Uplink, cfg.TimeScale), cfg.Seed^0xde^(int64(i+1)<<20))
		if err != nil {
			me.close()
			return nil, err
		}
		i := i
		me.clients = append(me.clients, rpc.DialReliable(addr, shaper, rpc.ReliableOptions{
			Retry:   cfg.Retry,
			Breaker: cfg.Breaker,
			// Re-register on (re)connection — but only at the device's
			// current home. Heartbeats reach every edge in the fleet, and a
			// bare probe must not create a tenancy (and a KKT share) at an
			// edge the device does not use.
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
			Seed:            cfg.Seed ^ 0x9e77 ^ (int64(i+1) << 16),
		}))
		me.index[addr] = i
	}

	fcfg := cfg.Fleet
	if fcfg.Every <= 0 {
		// Default the heartbeat cadence to the decision epoch: selection
		// reads views at slot boundaries, so polling faster buys nothing.
		fcfg.Every = cfg.TimeScale.Seconds(cfg.TauSec)
		if fcfg.Every < 10*time.Millisecond {
			fcfg.Every = 10 * time.Millisecond
		}
	}
	me.reg = fleet.New(fcfg, me.probe)
	for _, addr := range me.addrs {
		me.reg.Join(addr)
	}

	// Pick the initial home: hash order, rotating past dead edges. The
	// first successful call registers via OnConnect.
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

	// Warm every view synchronously so the first decision epoch selects
	// over real health, then keep polling in the background.
	pctx, pcancel := context.WithTimeout(context.Background(), rpc.DialTimeout)
	me.reg.Poll(pctx)
	pcancel()
	ctx, cancel := context.WithCancel(context.Background())
	me.stop = cancel
	me.wg.Add(1)
	go func() {
		defer me.wg.Done()
		me.reg.Run(ctx)
	}()
	return me, nil
}

// probe is the registry's heartbeat: one identified HeartbeatReq per edge,
// caching the reply for the selection step.
func (me *multiEdge) probe(ctx context.Context, addr string) (fleet.Health, error) {
	i, ok := me.index[addr]
	if !ok {
		return fleet.Health{}, fmt.Errorf("runtime: unknown fleet member %q", addr)
	}
	got, err := me.clients[i].Call(ctx, HeartbeatReq{DeviceID: me.d.cfg.ID})
	if err != nil {
		me.mu.Lock()
		me.fresh[i] = false
		me.mu.Unlock()
		return fleet.Health{}, err
	}
	h, ok := got.(HeartbeatResp)
	if !ok {
		return fleet.Health{}, fmt.Errorf("runtime: unexpected heartbeat reply %T", got)
	}
	me.mu.Lock()
	me.views[i] = h
	me.fresh[i] = true
	me.mu.Unlock()
	return fleet.Health{Ready: h.Ready, FLOPS: h.FLOPS, Tenants: h.Tenants,
		BacklogSec: h.BacklogSec, Saturated: h.Saturated}, nil
}

// step runs one decision epoch in federation mode: build the candidate edge
// states from cached heartbeats, select the drift-minimizing edge, migrate
// if the improvement clears the hysteresis margin, and return the
// offloading ratio against the chosen edge. No live candidate means
// device-only (x = 0), the same degradation as a tripped breaker.
func (me *multiEdge) step(ctrl *offload.Controller, policy offload.Policy, dev offload.Device, arrivals, localQ float64) float64 {
	cur := int(me.cur.Load())
	me.mu.Lock()
	views := append([]HeartbeatResp(nil), me.views...)
	fresh := append([]bool(nil), me.fresh...)
	me.mu.Unlock()

	var cands []int
	var states []offload.EdgeState
	for i := range me.addrs {
		if !fresh[i] {
			continue
		}
		if m, ok := me.reg.Member(me.addrs[i]); !ok || m.State == fleet.StateDown {
			continue
		}
		if me.clients[i].Breaker().State() != rpc.BreakerClosed {
			continue
		}
		st := offload.EdgeState{QueueSec: views[i].BacklogSec}
		if i == cur {
			// Resident view: the edge reports this tenant's solved share
			// and first-block backlog directly.
			st.ShareFLOPS = views[i].ShareFLOPS
			if st.ShareFLOPS <= 0 {
				st.ShareFLOPS = me.d.share()
			}
			st.Backlog = float64(views[i].PendingFirstBlock)
		} else {
			// Non-resident estimate: joining adds one tenant to the KKT
			// allocation, so roughly an equal split with one more head.
			st.ShareFLOPS = views[i].FLOPS / float64(views[i].Tenants+1)
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

// close stops the heartbeat poller and closes every edge client.
func (me *multiEdge) close() {
	if me.stop != nil {
		me.stop()
		me.wg.Wait()
	}
	for _, c := range me.clients {
		_ = c.Close()
	}
}
