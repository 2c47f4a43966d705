// Package loadgen is the open-loop load harness of the testbed: N synthetic
// devices offer first-block work to a live edge at a configured rate,
// regardless of how fast the edge answers. Open-loop arrivals are the honest
// way to measure a server's capacity — a closed loop (next request after the
// previous reply) slows its own offered load exactly when the server
// saturates, hiding the latency the backlog inflicts (coordinated omission).
// Here every task's latency is measured from its *scheduled* arrival, so
// queueing delay, admission rejections and deadline sheds all show up in the
// report.
//
// The harness speaks the runtime protocol directly (RegisterReq +
// FirstBlockReq) rather than running runtime.Device instances: a capacity
// probe must not adapt, fall back to local execution, or make offloading
// decisions. Rejections (ErrBusy, ErrOverloaded) are counted as the
// degrade-to-local signals a real device would absorb.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"leime/internal/metrics"
	"leime/internal/rpc"
	"leime/internal/runtime"
)

// This file is the live half of the harness: it dispatches the schedule
// against a real edge over real time, so wall-clock reads are its whole
// purpose. The package stays in clockpure's model-clock set to guard
// schedule.go; this one file opts out.
//
//lint:file-ignore clockpure open-loop dispatch paces real RPCs against the wall clock by design; the deterministic half of the package lives in schedule.go

// Latency summarizes the end-to-end latency distribution of completed
// tasks, in seconds, measured from each task's scheduled arrival.
type Latency struct {
	// Samples is the number of latencies recorded.
	Samples int `json:"samples"`
	// Mean is the exact mean over all completions.
	Mean float64 `json:"mean_sec"`
	// P50, P95 and P99 are reservoir-estimated percentiles.
	P50 float64 `json:"p50_sec"`
	P95 float64 `json:"p95_sec"`
	P99 float64 `json:"p99_sec"`
	// Max is the exact maximum.
	Max float64 `json:"max_sec"`
}

// Result is the report of one load run.
type Result struct {
	// OfferedRate is the configured aggregate offered load in tasks/sec.
	OfferedRate float64 `json:"offered_rate_per_sec"`
	// AchievedRate is completions divided by the generation horizon.
	AchievedRate float64 `json:"achieved_rate_per_sec"`
	// Generated counts scheduled tasks; Completed counts successful ones.
	Generated int `json:"generated"`
	Completed int `json:"completed"`
	// Rejected counts tasks the edge refused with admission control
	// (ErrBusy or ErrOverloaded) — the degrade-to-local signals a real
	// device would absorb by running the blocks itself.
	Rejected int `json:"rejected"`
	// DeadlineSheds counts tasks whose per-task timeout elapsed.
	DeadlineSheds int `json:"deadline_sheds"`
	// Errors counts everything else (transport failures, server faults).
	Errors int `json:"errors"`
	// Exits tallies completions by the exit stage the edge actually
	// answered through — under degradation that can be shallower than the
	// scheduled exit, which is what the accuracy-throughput frontier reads.
	Exits [3]int `json:"exits"`
	// Latency is the completion-latency distribution.
	Latency Latency `json:"latency"`
	// DurationSec is the configured generation horizon.
	DurationSec float64 `json:"duration_sec"`
	// Rerouted counts tasks retried against a different edge after a
	// transport failure at the device's home edge (federation runs only).
	Rerouted int `json:"rerouted,omitempty"`
	// PerEdge breaks outcomes down by the edge that answered the final
	// attempt. Present only when the run drives more than one edge.
	PerEdge []EdgeBreakdown `json:"per_edge,omitempty"`
}

// EdgeBreakdown is one edge's slice of a federation run: how the tasks that
// ended at this edge fared.
type EdgeBreakdown struct {
	// Addr is the edge server's address.
	Addr string `json:"addr"`
	// Completed, Rejected, DeadlineSheds and Errors mirror the Result
	// counters, attributed to the edge serving the final attempt.
	Completed     int `json:"completed"`
	Rejected      int `json:"rejected"`
	DeadlineSheds int `json:"deadline_sheds"`
	Errors        int `json:"errors"`
	// Rerouted counts tasks that arrived here after failing elsewhere.
	Rerouted int `json:"rerouted"`
}

// devConn is one synthetic device's connection state: its current client and
// home-edge index, guarded for the reroute path (tasks of one device run
// concurrently).
type devConn struct {
	mu     sync.Mutex
	client *rpc.Client
	edge   int
}

// get snapshots the device's current client and edge index.
func (dc *devConn) get() (*rpc.Client, int) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.client, dc.edge
}

// reroute moves the device off a failed edge: it walks the fleet from the
// failure point, re-registering at the first edge that accepts, and swaps
// the connection. If another task already rerouted the device, the fresh
// connection is reused as-is. Returns the client to retry on, its edge
// index, and whether a retry is possible at all.
func (dc *devConn) reroute(ctx context.Context, cfg Config, id string, failed int) (*rpc.Client, int, bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if dc.edge != failed {
		return dc.client, dc.edge, true
	}
	for k := 1; k < len(cfg.EdgeAddrs); k++ {
		e := (failed + k) % len(cfg.EdgeAddrs)
		c, err := dialRegister(ctx, cfg, cfg.EdgeAddrs[e], id)
		if err != nil {
			continue
		}
		_ = dc.client.Close()
		dc.client, dc.edge = c, e
		return c, e, true
	}
	return nil, failed, false
}

// dialRegister dials one edge and registers the synthetic device there.
func dialRegister(ctx context.Context, cfg Config, addr, id string) (*rpc.Client, error) {
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		return nil, fmt.Errorf("loadgen: device %s: %w", id, err)
	}
	regCtx, cancel := context.WithTimeout(ctx, rpc.DialTimeout)
	defer cancel()
	if _, err := c.Call(regCtx, runtime.RegisterReq{
		DeviceID:    id,
		FLOPS:       cfg.DeviceFLOPS,
		ArrivalMean: cfg.Rate,
		Model:       cfg.Model,
	}); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("loadgen: register %s: %w", id, err)
	}
	return c, nil
}

// Run executes one open-loop load run. The context cancels in-flight work;
// the run otherwise lasts the configured duration plus straggler drain.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	schedule, err := Schedule(cfg)
	if err != nil {
		return nil, err
	}
	runtime.RegisterMessages()

	conns := make([]*devConn, cfg.Devices)
	ids := make([]string, cfg.Devices)
	for i := range conns {
		ids[i] = fmt.Sprintf("%s-%02d", cfg.IDPrefix, i)
		home := i % len(cfg.EdgeAddrs)
		c, err := dialRegister(ctx, cfg, cfg.EdgeAddrs[home], ids[i])
		if err != nil {
			closeConns(conns)
			return nil, err
		}
		conns[i] = &devConn{client: c, edge: home}
	}
	defer func() {
		for i, dc := range conns {
			if dc == nil {
				continue
			}
			c, _ := dc.get()
			// Unregistration must survive the run context's cancellation
			// (SIGINT lands here too) or every aborted run leaks tenant
			// shares on the edge — detach cancellation, keep the lineage,
			// and bound the exchange on its own dial budget.
			unregCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), rpc.DialTimeout)
			_, _ = c.Call(unregCtx, runtime.UnregisterReq{DeviceID: ids[i]})
			cancel()
		}
		closeConns(conns)
	}()

	res := &Result{
		OfferedRate: float64(cfg.Devices) * cfg.Rate,
		Generated:   len(schedule),
		DurationSec: cfg.Duration.Seconds(),
	}
	perEdge := make([]EdgeBreakdown, len(cfg.EdgeAddrs))
	for e, addr := range cfg.EdgeAddrs {
		perEdge[e].Addr = addr
	}
	reservoir := metrics.NewSharedReservoir(cfg.ReservoirCap, cfg.Seed)
	var mu sync.Mutex // guards the counters below
	payload := make([]byte, int(cfg.Model.D[0]))

	start := time.Now()
	var wg sync.WaitGroup
	for _, a := range schedule {
		if sleepUntil(ctx, start.Add(a.At)) != nil {
			mu.Lock()
			res.Errors++ // cancelled before dispatch
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(a Arrival) {
			defer wg.Done()
			req := runtime.FirstBlockReq{
				DeviceID:  ids[a.Device],
				TaskID:    a.Task,
				Payload:   payload,
				ExitStage: a.Exit,
			}
			// The task's deadline is absolute from its scheduled arrival:
			// the sampled per-task budget when the schedule carries one, the
			// per-task timeout otherwise. Both anchor at the arrival, not the
			// attempt, so a rerouted retry spends only the remaining budget.
			deadline := absoluteDeadline(start, a, cfg.Timeout)
			taskCtx, cancel := taskContext(ctx, deadline)
			client, edge := conns[a.Device].get()
			resp, err := client.Call(taskCtx, req)
			rerouted := false
			if err != nil && len(cfg.EdgeAddrs) > 1 && transportFailure(err) {
				// The home edge is unreachable or answered with a fault:
				// move the device to the next live edge and retry once,
				// under the same absolute deadline.
				if c2, e2, ok := conns[a.Device].reroute(ctx, cfg, ids[a.Device], edge); ok {
					rerouted = true
					edge = e2
					cancel()
					taskCtx, cancel = taskContext(ctx, deadline)
					resp, err = c2.Call(taskCtx, req)
				}
			}
			cancel()
			elapsed := time.Since(start.Add(a.At)).Seconds()
			mu.Lock()
			defer mu.Unlock()
			if rerouted {
				res.Rerouted++
				perEdge[edge].Rerouted++
			}
			switch {
			case err == nil:
				res.Completed++
				res.Exits[exitIndex(resp, a.Exit)]++
				perEdge[edge].Completed++
				reservoir.Add(elapsed)
			case errors.Is(err, runtime.ErrDeadlineInfeasible):
				// Deadline admission predicted the task cannot finish in
				// time. The sentinel also unwraps to ErrOverloaded, so this
				// arm must precede the backpressure one: an infeasible task
				// is a shed (its budget is doomed anywhere), not a
				// degrade-to-local rejection.
				res.DeadlineSheds++
				perEdge[edge].DeadlineSheds++
			case errors.Is(err, runtime.ErrBusy) || errors.Is(err, runtime.ErrOverloaded):
				res.Rejected++
				perEdge[edge].Rejected++
			case errors.Is(err, rpc.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
				res.DeadlineSheds++
				perEdge[edge].DeadlineSheds++
			default:
				res.Errors++
				perEdge[edge].Errors++
			}
		}(a)
	}
	wg.Wait()
	if len(cfg.EdgeAddrs) > 1 {
		res.PerEdge = perEdge
	}

	res.AchievedRate = float64(res.Completed) / cfg.Duration.Seconds()
	res.Latency = Latency{
		Samples: reservoir.Count(),
		Mean:    reservoir.Mean(),
		P50:     reservoir.Percentile(50),
		P95:     reservoir.Percentile(95),
		P99:     reservoir.Percentile(99),
		Max:     reservoir.Max(),
	}
	return res, nil
}

// absoluteDeadline resolves one task's wall-clock deadline: the schedule's
// sampled budget when present, the configured per-task timeout otherwise,
// both measured from the task's scheduled arrival. Zero means unbounded.
func absoluteDeadline(start time.Time, a Arrival, timeout time.Duration) time.Time {
	budget := a.Deadline
	if budget <= 0 {
		budget = timeout
	}
	if budget <= 0 {
		return time.Time{}
	}
	return start.Add(a.At).Add(budget)
}

// taskContext derives the per-task context: the run context, bounded by the
// task's absolute deadline when one is set. The deadline rides the rpc
// envelope to the edge, where deadline admission reads it.
func taskContext(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, deadline)
}

// sleepUntil blocks until the deadline or the context ends, whichever is
// first. It returns nil when the deadline was reached (including deadlines
// already in the past — open-loop dispatch never skips a scheduled task).
func sleepUntil(ctx context.Context, deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// exitIndex resolves the Exits bucket for a completed task: the exit stage
// the edge reports (degradation may answer through a shallower exit than
// requested), falling back to the scheduled exit on malformed replies.
func exitIndex(resp any, scheduled int) int {
	if tr, ok := resp.(runtime.TaskResp); ok && tr.ExitStage >= 1 && tr.ExitStage <= 3 {
		return tr.ExitStage - 1
	}
	return scheduled - 1
}

// transportFailure reports whether the error warrants trying another edge:
// anything that is not backpressure (the edge is alive and refusing) and not
// a deadline (the task's time budget is spent either way).
func transportFailure(err error) bool {
	return !errors.Is(err, runtime.ErrBusy) &&
		!errors.Is(err, runtime.ErrOverloaded) &&
		!errors.Is(err, rpc.ErrDeadlineExceeded) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// closeConns closes every non-nil device connection.
func closeConns(conns []*devConn) {
	for _, dc := range conns {
		if dc == nil {
			continue
		}
		c, _ := dc.get()
		_ = c.Close()
	}
}

// SweepResult is the saturation report of a rate sweep: one Result per
// offered rate, in sweep order. Plotting achieved vs offered rate locates
// the knee; p99 against offered rate shows the latency cliff past it.
type SweepResult struct {
	// Points are the per-rate run reports.
	Points []Result `json:"points"`
}

// Sweep runs the configuration at each per-device rate in turn, namespacing
// device IDs per point so tenant state never collides, and pausing briefly
// between points so one point's stragglers do not pollute the next.
func Sweep(ctx context.Context, base Config, rates []float64) (*SweepResult, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("loadgen: empty rate sweep")
	}
	out := &SweepResult{}
	for i, r := range rates {
		cfg := base
		cfg.Rate = r
		cfg.IDPrefix = fmt.Sprintf("%s-r%d", base.withDefaults().IDPrefix, i)
		res, err := Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("loadgen: sweep point %v/s: %w", r, err)
		}
		out.Points = append(out.Points, *res)
		if err := sleepUntil(ctx, time.Now().Add(50*time.Millisecond)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
