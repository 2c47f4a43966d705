package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"leime"
	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/runtime"
)

// updateRate is the rate of UpdateReq rate renegotiations per wall second;
// each one re-solves the KKT shares under the edge's tenant lock.
const updateRate = 100

// controlTimeout bounds one control call.
const controlTimeout = 250 * time.Millisecond

// tenants is a set of synthetic devices registered at one edge over the
// generator's connections. They all declare the same capability and load,
// so the KKT allocation gives each the same share of the edge.
type tenants struct {
	conns []*rpc.Client
	ids   []string
	share float64 // each tenant's share, FLOPS
}

// registerTenants dials conns connections to the edge at addr and
// registers n tenants over them, round-robin.
func registerTenants(addr string, conns, n int, edgeFLOPS float64, model offload.ModelParams) (*tenants, error) {
	tn := &tenants{share: edgeFLOPS / float64(n)}
	for i := 0; i < conns; i++ {
		c, err := rpc.Dial(addr, nil)
		if err != nil {
			tn.close()
			return nil, err
		}
		tn.conns = append(tn.conns, c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), rpc.DialTimeout)
	defer cancel()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("tenant-%02d", i)
		tn.ids = append(tn.ids, id)
		if _, err := tn.conn(i).Call(ctx, runtime.RegisterReq{DeviceID: id, FLOPS: leime.RaspberryPi3B.FLOPS, ArrivalMean: 1, Model: model}); err != nil {
			tn.close()
			return nil, fmt.Errorf("register %s: %w", id, err)
		}
	}
	return tn, nil
}

// conn is the generator connection tenant i's calls ride.
func (tn *tenants) conn(i int) *rpc.Client { return tn.conns[i%len(tn.conns)] }

func (tn *tenants) close() {
	if tn == nil {
		return
	}
	for _, c := range tn.conns {
		_ = c.Close()
	}
}

// startControl starts the control stream and returns the function that
// stops it and reports its latencies and tally. On nil tenants the stream
// is empty.
func (tn *tenants) startControl() (stop func() ([]float64, tally)) {
	if tn == nil {
		return func() ([]float64, tally) { return nil, tally{} }
	}
	quit := make(chan struct{})
	type result struct {
		lat []float64
		t   tally
	}
	done := make(chan result, 1)
	go func() {
		lat, t := tn.controlStream(quit)
		done <- result{lat, t}
	}()
	return func() ([]float64, tally) {
		close(quit)
		res := <-done
		return res.lat, res.t
	}
}

// controlStream sends UpdateReq renegotiations round-robin over the tenants
// at updateRate until stop closes, checking that every reply carries the
// tenant's unchanged share. It returns each call's latency from its due
// time, in seconds.
func (tn *tenants) controlStream(stop <-chan struct{}) ([]float64, tally) {
	var mu sync.Mutex
	var lat []float64
	var t tally
	var wg sync.WaitGroup
	start := time.Now()
	every := time.Second / updateRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			timer.Stop()
			wg.Wait()
			return lat, t
		case <-timer.C:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := k % len(tn.ids)
			ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
			got, err := tn.conn(i).Call(ctx, runtime.UpdateReq{DeviceID: tn.ids[i], ArrivalMean: 1})
			cancel()
			d := time.Since(due).Seconds()
			resp, ok := got.(runtime.RegisterResp)
			mu.Lock()
			defer mu.Unlock()
			t.controlAttempted++
			if err != nil || !ok || math.Abs(resp.ShareFLOPS-tn.share) > 1e-9*tn.share {
				t.controlWrong++
				return
			}
			lat = append(lat, d)
		}()
	}
}

// timeAllocate times offload.Allocate on the tenant set of pipeline-chain's
// entry edge, which every UpdateReq re-solves, and returns the median of
// many calls, in seconds. Every workload reports it, so it is the same
// measurement everywhere.
func timeAllocate() float64 {
	devs := make([]offload.Device, pipeTenants)
	for i := range devs {
		devs[i] = offload.Device{FLOPS: leime.RaspberryPi3B.FLOPS, BandwidthBps: 1, ArrivalMean: 1}
	}
	samples := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		t := time.Now()
		const inner = 20
		for j := 0; j < inner; j++ {
			if _, err := offload.Allocate(devs, pipeChain.Workers[0].FLOPS); err != nil {
				return 0
			}
		}
		samples = append(samples, time.Since(t).Seconds()/inner)
	}
	return median(samples)
}
