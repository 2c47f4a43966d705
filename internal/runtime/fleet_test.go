package runtime

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"leime/internal/cluster"
	"leime/internal/fleet"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/sim"
	"leime/internal/telemetry"
	"leime/internal/trace"
)

// testFleetConfig is a fast heartbeat cadence for compressed-time tests.
func testFleetConfig() fleet.Config {
	return fleet.Config{Every: 10 * time.Millisecond, SuspectAfter: 2}
}

// startFederatedEdge starts one edge with the given peers, registered for
// cleanup.
func startFederatedEdge(t *testing.T, cfg EdgeConfig) *Edge {
	t.Helper()
	e, err := StartEdge(cfg)
	if err != nil {
		t.Fatalf("StartEdge: %v", err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// registerAt creates a tenancy for id at the edge through a raw client (the
// readiness protocol: an edge serves steal traffic only once its KKT
// allocation is warm).
func registerAt(t *testing.T, addr, id string) *rpc.Client {
	t.Helper()
	RegisterMessages()
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatalf("Dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if _, err := c.Call(context.Background(), RegisterReq{DeviceID: id, FLOPS: 1e9, ArrivalMean: 2}); err != nil {
		t.Fatalf("register %s at %s: %v", id, addr, err)
	}
	return c
}

// waitReadyPeers blocks until the edge's registry sees n ready peers.
func waitReadyPeers(t *testing.T, e *Edge, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(e.PeerRegistry().Ready()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("peer registry never saw %d ready peers (have %d)", n, len(e.PeerRegistry().Ready()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStealOneHopBound pins the structural one-hop property of work
// stealing: a saturated edge forwards rejected tasks to its peer, the peer
// executes them on spare capacity, and the stolen work is NEVER forwarded
// again — the peer's own peer sees zero steals, and an over-hop StealReq is
// rejected outright.
func TestStealOneHopBound(t *testing.T) {
	edgeC := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
	})
	edgeB := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(), TimeScale: testScale,
		Peers: []string{edgeC.Addr()}, Fleet: testFleetConfig(),
	})
	// A tiny per-tenant pending cap on a slow edge makes admission reject
	// most of the burst below, forcing the steal path.
	edgeA := startFederatedEdge(t, EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: 2e9, Model: testModel(), TimeScale: testScale,
		MaxPendingPerTenant: 1,
		Peers:               []string{edgeB.Addr()}, Fleet: testFleetConfig(),
	})

	// Warm every edge's allocation so the fleet readiness gate opens.
	registerAt(t, edgeC.Addr(), "res-c")
	registerAt(t, edgeB.Addr(), "res-b")
	src := registerAt(t, edgeA.Addr(), "src")
	waitReadyPeers(t, edgeA, 1)
	waitReadyPeers(t, edgeB, 1)

	// Burst concurrent first-block offloads at the saturated edge. Each
	// either runs at A, is stolen to B, or is rejected back to the caller —
	// but none may travel A -> B -> C.
	const burst = 24
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, _ = src.Call(ctx, FirstBlockReq{DeviceID: "src", TaskID: uint64(i + 1), Payload: []byte{1}, ExitStage: 1})
		}(i)
	}
	wg.Wait()

	_, aOut, _ := edgeA.StealStats()
	bIn, bOut, _ := edgeB.StealStats()
	cIn, _, _ := edgeC.StealStats()
	if aOut == 0 {
		t.Fatal("saturated edge never attempted a steal; burst too lenient")
	}
	if bIn == 0 {
		t.Error("peer executed no stolen tasks")
	}
	if bOut != 0 {
		t.Errorf("peer re-stole %d received tasks; one-hop bound violated", bOut)
	}
	if cIn != 0 {
		t.Errorf("second-hop peer received %d steals; one-hop bound violated", cIn)
	}

	// The bound is also enforced on the wire: an over-hop StealReq is
	// rejected before any execution.
	raw, err := rpc.Dial(edgeB.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer raw.Close()
	_, err = raw.Call(context.Background(), StealReq{DeviceID: "src", TaskID: 999, ExitStage: 1, Hop: 2, Model: testModel()})
	if err == nil || !strings.Contains(err.Error(), "one-hop") {
		t.Errorf("Hop=2 steal not rejected: err=%v", err)
	}
	if cInAfter, _, _ := edgeC.StealStats(); cInAfter != 0 {
		t.Errorf("over-hop steal leaked %d tasks to the second peer", cInAfter)
	}
}

// TestFleetChaosKillOneOfThreeEdges is the federation chaos acceptance
// test: devices selecting over three edges lose one mid-run, must re-select
// a survivor (observable as migrations), never hang, and complete every
// generated task.
func TestFleetChaosKillOneOfThreeEdges(t *testing.T) {
	cloud, err := StartCloud(CloudConfig{
		Addr: "127.0.0.1:0", FLOPS: 2e12, Block3FLOPs: testModel().Mu[2], TimeScale: testScale,
	})
	if err != nil {
		t.Fatalf("StartCloud: %v", err)
	}
	defer cloud.Close()

	const edges = 3
	fleetEdges := make([]*Edge, edges)
	addrs := make([]string, edges)
	for i := 0; i < edges; i++ {
		e, err := StartEdge(EdgeConfig{
			Addr: "127.0.0.1:0", FLOPS: 6e10, Model: testModel(),
			CloudAddr: cloud.Addr(),
			CloudLink: netem.Link{BandwidthBps: 5e7, Latency: 10 * time.Millisecond},
			TimeScale: testScale,
		})
		if err != nil {
			t.Fatalf("StartEdge %d: %v", i, err)
		}
		fleetEdges[i] = e
		addrs[i] = e.Addr()
	}
	defer func() {
		for _, e := range fleetEdges {
			_ = e.Close()
		}
	}()

	const devices = 4
	type outcome struct {
		id    string
		stats *DeviceStats
		err   error
	}
	results := make(chan outcome, devices)
	homes := make(map[int]bool) // edge indices hosting at least one device
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("fchaos-%d", i)
		h := fnv.New32a()
		_, _ = h.Write([]byte(id))
		homes[int(h.Sum32()%edges)] = true
		go func(i int, id string) {
			cfg := testDeviceConfig("", id)
			cfg.EdgeAddrs = append([]string(nil), addrs...)
			cfg.Fleet = testFleetConfig()
			eOnly := offload.EdgeOnly()
			cfg.Policy = &eOnly // insist on offloading: only faults force local work
			cfg.ArrivalMean = 4
			cfg.Slots = 50
			cfg.AdaptEvery = 2
			cfg.Seed = int64(211 + i*7)
			cfg.Retry = rpc.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 15 * time.Millisecond}
			cfg.Breaker = rpc.BreakerConfig{FailureThreshold: 3, Cooldown: 40 * time.Millisecond}
			stats, err := RunDevice(cfg)
			results <- outcome{id: id, stats: stats, err: err}
		}(i, id)
	}

	// Kill an edge that is actually somebody's home, while the run is hot,
	// and never bring it back: survivors must absorb the tenancies.
	victim := 0
	for i := 0; i < edges; i++ {
		if homes[i] {
			victim = i
			break
		}
	}
	time.Sleep(120 * time.Millisecond)
	if err := fleetEdges[victim].Close(); err != nil {
		t.Fatalf("killing edge %d: %v", victim, err)
	}

	migrations := 0
	for i := 0; i < devices; i++ {
		var got outcome
		select {
		case got = <-results:
		case <-time.After(60 * time.Second):
			t.Fatal("device run hung after edge kill")
		}
		if got.err != nil {
			t.Fatalf("device %s failed: %v", got.id, got.err)
		}
		if got.stats.Errors != 0 {
			t.Errorf("device %s: %d task errors", got.id, got.stats.Errors)
		}
		if got.stats.Completed != got.stats.Generated {
			t.Errorf("device %s: conservation %d != %d", got.id, got.stats.Completed, got.stats.Generated)
		}
		migrations += got.stats.Migrations
	}
	if migrations == 0 {
		t.Error("no device migrated off the killed edge")
	}
}

// TestFederationRuntimeMatchesSim is the federation's substrate
// differential: three loopback edges and one cloud against sim.RunEvents
// with three edges, on the same per-device arrival trace. Device IDs are
// chosen so the runtime's hash homing (fnv(id) mod 3) lands device i on
// edge i mod 3, the sim's homing. The load is light enough that neither
// substrate migrates, so every offloaded first block must land on its
// device's home edge in both, and mean TCT must agree within the band
// below. The edge-only policy makes the offloaded count per edge an exact
// function of the trace rather than of each substrate's coin flips.
func TestFederationRuntimeMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second loopback differential")
	}
	const (
		edges   = 3
		devices = 6
		slots   = 20
		warmup  = 2
		rate    = 1.0
		// tctBand is the relative mean-TCT tolerance: the runtime burns
		// modelled time in wall-clock sleeps, and each substrate samples
		// its own exits.
		tctBand = 0.25
		// servedBand is the relative tolerance on each edge's first-block
		// count.
		servedBand = 0.05
	)
	const scale Scale = 0.05
	model := testModel()
	edgeFLOPS, cloudFLOPS := 4e9, 2e12
	uplink := netem.Link{BandwidthBps: 1e7, Latency: 20 * time.Millisecond}
	cloudLink := netem.Link{BandwidthBps: 5e7, Latency: 10 * time.Millisecond}

	ids := make([]string, devices)
	counts := make([][]int, devices)
	for i := range ids {
		for k := 0; ids[i] == ""; k++ {
			id := fmt.Sprintf("fdiff-%d-%d", i, k)
			h := fnv.New32a()
			_, _ = h.Write([]byte(id))
			if int(h.Sum32()%edges) == i%edges {
				ids[i] = id
			}
		}
		p, err := trace.NewPoisson(rate, int64(900+i))
		if err != nil {
			t.Fatalf("NewPoisson: %v", err)
		}
		counts[i] = make([]int, slots)
		for s := range counts[i] {
			counts[i][s] = p.Next()
		}
	}
	replay := func(i int) trace.Process {
		r, err := trace.NewRecorded(counts[i])
		if err != nil {
			t.Fatalf("NewRecorded: %v", err)
		}
		return r
	}
	eOnly := offload.EdgeOnly()

	specs := make([]sim.DeviceSpec, devices)
	for i := range specs {
		specs[i] = sim.DeviceSpec{
			Device: offload.Device{FLOPS: 1.2e9, BandwidthBps: uplink.BandwidthBps,
				LatencySec: uplink.Latency.Seconds(), ArrivalMean: rate},
			Arrivals: replay(i),
			Policy:   &eOnly,
		}
	}
	simRes, err := sim.RunEvents(sim.EventConfig{
		Model: model, Devices: specs, EdgeFLOPS: edgeFLOPS, Edges: edges, CloudFLOPS: cloudFLOPS,
		EdgeCloud: cluster.Path{BandwidthBps: cloudLink.BandwidthBps, LatencySec: cloudLink.Latency.Seconds()},
		TauSec:    1, V: 1e4, Slots: slots, WarmupSlots: warmup, Seed: 5,
	})
	if err != nil {
		t.Fatalf("sim.RunEvents: %v", err)
	}

	cloud, err := StartCloud(CloudConfig{Addr: "127.0.0.1:0", FLOPS: cloudFLOPS, Block3FLOPs: model.Mu[2], TimeScale: scale})
	if err != nil {
		t.Fatalf("StartCloud: %v", err)
	}
	defer cloud.Close()
	regs := make([]*telemetry.Registry, edges)
	addrs := make([]string, edges)
	for e := range addrs {
		regs[e] = telemetry.NewRegistry()
		edge := startFederatedEdge(t, EdgeConfig{
			Addr: "127.0.0.1:0", FLOPS: edgeFLOPS, Model: model,
			CloudAddr: cloud.Addr(), CloudLink: cloudLink, TimeScale: scale, Metrics: regs[e],
		})
		addrs[e] = edge.Addr()
	}
	stats := make([]*DeviceStats, devices)
	errs := make([]error, devices)
	// The sim homes every device before slot 0. Hold each runtime device
	// at its Ready hook until all six have registered, then let a few
	// heartbeats refresh the views, so no device decides against a fleet
	// that is still filling up.
	var registered, wg sync.WaitGroup
	registered.Add(devices)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := testDeviceConfig("", ids[i])
			cfg.EdgeAddrs = addrs
			// A heartbeat that outlives its timeout drops the edge from the
			// candidates — the home edge included, which would force a
			// migration the model never makes. Give slow probes room.
			cfg.Fleet = fleet.Config{Every: 20 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond}
			cfg.Uplink = uplink
			cfg.Arrivals = replay(i)
			cfg.ArrivalMean = rate
			cfg.Policy = &eOnly
			cfg.Slots, cfg.WarmupSlots = slots, warmup
			cfg.TimeScale = scale
			cfg.Seed = int64(31 + i)
			cfg.Ready = func() {
				registered.Done()
				registered.Wait()
				time.Sleep(5 * cfg.Fleet.Every)
			}
			stats[i], errs[i] = RunDevice(cfg)
		}(i)
	}
	wg.Wait()

	var tctSum float64
	tasks, migrations := 0, 0
	for i, st := range stats {
		if errs[i] != nil {
			t.Fatalf("device %s: %v", ids[i], errs[i])
		}
		if st.Errors != 0 || st.Fallbacks != 0 || st.Completed != st.Generated {
			t.Errorf("device %s: %d errors, %d fallbacks, %d/%d completed", ids[i], st.Errors, st.Fallbacks, st.Completed, st.Generated)
		}
		migrations += st.Migrations
		tctSum += st.TCT.Mean() * float64(st.TCT.Count())
		tasks += st.TCT.Count()
	}
	if migrations != 0 || simRes.Migrations != 0 {
		t.Fatalf("load migrates (runtime %d, sim %d); the differential needs stable homes", migrations, simRes.Migrations)
	}
	served := make([]float64, edges)
	for e, reg := range regs {
		for _, s := range reg.Samples() {
			if s.Name == "leime_edge_block_seconds_count" && s.Labels == `{block="1"}` {
				served[e] = s.Value
			}
		}
		want := float64(simRes.PerEdgeServed[e])
		if want == 0 || math.Abs(served[e]-want)/want > servedBand {
			t.Errorf("edge %d: runtime served %v first blocks, sim %v", e, served[e], want)
		}
	}
	got, want := tctSum/float64(tasks), simRes.TCT.Mean()
	if rel := math.Abs(got-want) / want; rel > tctBand {
		t.Errorf("mean TCT: runtime %.4fs vs sim %.4fs (%.0f%% off, band %.0f%%)", got, want, rel*100, tctBand*100)
	}
	t.Logf("mean TCT runtime %.4fs sim %.4fs; per-edge first blocks runtime %v sim %v",
		got, want, served, simRes.PerEdgeServed)
}
