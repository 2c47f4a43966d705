package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"leime"
	"leime/internal/model"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/partition"
	"leime/internal/rpc"
	"leime/internal/runtime"
	"leime/internal/sim"
	"leime/internal/telemetry"
)

// pipeline-chain: a ResNet-34 chain cut across three weak edge workers,
// the only path that relays 64-262 KB activations hop by hop through stage
// executors.
const (
	// pipeScale compresses time enough that per-hop transport is a
	// visible share of each task.
	pipeScale = runtime.Scale(0.01)
	// pipeLoad is the offered rate as a fraction of the plan's
	// sustainable rate.
	pipeLoad = 0.2
	// pipeE1, pipeE2 are the deployed exits.
	pipeE1, pipeE2 = 5, 11
	pipeID         = "bench"
	// pipeDeadline is every task's budget from its due time. Deadline
	// admission quotes each stage job against it, so the control predictor
	// runs on every job. The budget is far above any latency seen, so a
	// task that misses it fails the run.
	pipeDeadline = 2 * time.Second
	// pipeTenants are synthetic tenants registered at the entry stage's
	// edge; their UpdateReq stream measures the control path beside the
	// chain's data path.
	pipeTenants = 32
)

// pipeChain is three 1.5 GFLOPS workers behind an 80 Mbps ingress, joined
// by 200 Mbps links.
var pipeChain = partition.Chain{
	Workers: []partition.Worker{{FLOPS: 1.5e9}, {FLOPS: 1.5e9}, {FLOPS: 1.5e9}},
	Hops: []partition.Hop{
		{BandwidthBps: 80e6, LatencySec: 0.004},
		{BandwidthBps: 200e6, LatencySec: 0.002},
		{BandwidthBps: 200e6, LatencySec: 0.002},
	},
}

// pipeEnv is one set-up of pipeline-chain.
type pipeEnv struct {
	net   *model.MEDNN
	plan  *partition.Plan
	sched []arrival
	edges []*runtime.Edge
	pc    *runtime.PipelineClient
	tn    *tenants // nil when the generator may open only one connection
	tr    *telemetry.Tracer
}

func (e *pipeEnv) close() {
	e.tn.close()
	if e.pc != nil {
		_ = e.pc.Close()
	}
	for _, ed := range e.edges {
		_ = ed.Close()
	}
}

func runPipeline(cfg config) (*run, error) {
	r := &run{}
	var env *pipeEnv
	for rep := 0; rep < setupReps; rep++ {
		if env != nil {
			env.close()
		}
		var err error
		env, err = setupPipeline(cfg, r)
		if err != nil {
			return nil, err
		}
	}
	defer env.close()
	r.note("cut %v, sustainable %.3f tasks/s on the model clock, offered %.1f tasks/s wall, %d tasks",
		env.plan.Cuts, env.plan.SustainableRate, pipeLoad*env.plan.SustainableRate/float64(pipeScale), len(env.sched))
	r.allocSec = timeAllocate()
	r.tracer = env.tr
	r.keep = func(telemetry.Span) bool { return true }
	r.modelled = func(s telemetry.Span) (float64, bool) {
		var j int
		if _, err := fmt.Sscanf(s.Name, "edge.stage%d", &j); err != nil || j >= len(env.plan.Stages) || s.Task < 1 || int(s.Task) > len(env.sched) {
			return 0, false
		}
		st := env.plan.Stages[j]
		flops := st.FLOPs[env.sched[s.Task-1].class-1]
		return pipeScale.Seconds(flops / pipeChain.Workers[st.Worker].FLOPS).Seconds(), true
	}

	stopControl := env.tn.startControl()
	before := snapProc()
	tct, lags, tasks := pipeOpen(env)
	r.proc = before.until(snapProc())
	var ctl tally
	r.ctl, ctl = stopControl()
	r.tct, r.lags, r.done = tct, lags, tasks.completed
	r.checkPhase(env.sched, tasks, ctl)
	return r, nil
}

// pipeOpen offers env.sched to the chain through env.pc, open loop, and
// checks every reply. It returns the completed tasks' latencies from their
// due times, the dispatch lags, and the tally, in seconds.
func pipeOpen(env *pipeEnv) (tct, lags []float64, t tally) {
	lat := make([]float64, len(env.sched))
	outs := make([]outcome, len(env.sched))
	lags = openLoop(time.Now(), env.sched, func(i int, due time.Time) {
		a := env.sched[i]
		id := uint64(i + 1)
		ctx, cancel := context.WithDeadline(context.Background(), due.Add(pipeDeadline))
		defer cancel()
		root := beginTask(env.tr, due, pipeID, id)
		span, meta := callSpan(env.tr, root, "rpc.pipeline")
		resp, err := env.pc.DoMeta(ctx, meta, id, a.class)
		span.End()
		endTask(env.tr, root)
		lat[i] = time.Since(due).Seconds()
		outs[i] = classify(resp, err, id, a.class)
	})
	for i, o := range outs {
		t.record(o)
		if o == outOK {
			tct = append(tct, lat[i])
		}
	}
	return tct, lags, t
}

// setupPipeline builds ResNet-34 for its exit rates, solves the chain cut,
// predicts the schedule's latency on the model clock, starts one edge per
// stage, installs the chain and warms every hop up.
func setupPipeline(cfg config, r *run) (*pipeEnv, error) {
	t0 := time.Now()
	sys, err := leime.Build(leime.Options{Arch: "resnet-34", Env: leime.TestbedEnv(leime.RaspberryPi3B)})
	if err != nil {
		return nil, err
	}
	net, err := model.NewMEDNN(model.ResNet34(), pipeE1, pipeE2, sys.Sigma())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	single, err := partition.SingleWorker(partition.Config{Net: net, Chain: pipeChain})
	if err != nil {
		return nil, err
	}
	// Cut for a load one worker alone cannot carry.
	plan, err := partition.Solve(partition.Config{Net: net, Chain: pipeChain, ArrivalRate: 1.2 * single.SustainableRate})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	env := &pipeEnv{net: net, plan: plan}
	rate := pipeLoad * plan.SustainableRate / float64(pipeScale)
	env.sched = poissonSchedule(rand.New(rand.NewSource(cfg.seed)), rate, time.Duration(cfg.seconds*float64(time.Second)), 1, net.Sigma)
	arrivals := make([]sim.PipeArrival, len(env.sched))
	for i, a := range env.sched {
		arrivals[i] = sim.PipeArrival{AtSec: a.at.Seconds() / float64(pipeScale), Class: a.class}
	}
	pred, err := sim.RunPipeline(sim.PipelineConfig{Net: net, Chain: pipeChain, Cuts: plan.Cuts, Arrivals: arrivals})
	if err != nil {
		return nil, fmt.Errorf("model-clock prediction: %w", err)
	}
	r.predicted = pred.TCT.Mean() * float64(pipeScale)
	t3 := time.Now()

	if cfg.traced {
		env.tr = telemetry.NewTracer(spanCapacity)
	}
	edgeModel := offload.ModelParams{Mu: net.BlockFLOPs(), D: net.DataBytes(), Sigma: net.Sigma}
	addrs := make([]string, 0, len(plan.Stages))
	for _, st := range plan.Stages {
		hop := pipeChain.Hops[min(st.Worker+1, len(pipeChain.Hops)-1)]
		e, err := runtime.StartEdge(runtime.EdgeConfig{
			Addr: "127.0.0.1:0", FLOPS: pipeChain.Workers[st.Worker].FLOPS, Model: edgeModel, TimeScale: pipeScale,
			PeerLink: netem.Link{BandwidthBps: hop.BandwidthBps, Latency: time.Duration(hop.LatencySec * float64(time.Second))},
			Policy:   runtime.ControlPolicy{DeadlineAdmission: true},
			Tracer:   env.tr,
		})
		if err != nil {
			env.close()
			return nil, err
		}
		env.edges = append(env.edges, e)
		addrs = append(addrs, e.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), rpc.DialTimeout)
	defer cancel()
	if err := runtime.InstallPipeline(ctx, pipeID, addrs, runtime.PipelineFromPlan(plan)); err != nil {
		env.close()
		return nil, err
	}
	ingress := pipeChain.Hops[0]
	env.pc, err = runtime.DialPipeline(runtime.PipelineClientConfig{
		Addr: addrs[0], PipelineID: pipeID, DeviceID: pipeID, InputBytes: net.Profile.DataBytes(0),
		Uplink:    netem.Link{BandwidthBps: ingress.BandwidthBps, Latency: time.Duration(ingress.LatencySec * float64(time.Second))},
		TimeScale: pipeScale, Seed: cfg.seed,
	})
	if err != nil {
		env.close()
		return nil, err
	}
	// The PipelineClient holds one generator connection; the tenants get
	// the rest.
	if conns := generatorConns() - 1; conns > 0 {
		if env.tn, err = registerTenants(addrs[0], conns, pipeTenants, pipeChain.Workers[plan.Stages[0].Worker].FLOPS, edgeModel); err != nil {
			env.close()
			return nil, err
		}
	}
	// Warm-up: one untraced task per class dials every hop before anything
	// is timed.
	for c := 1; c <= 3; c++ {
		id := uint64(1<<32 + c)
		resp, err := env.pc.Do(ctx, id, c)
		if o := classify(resp, err, id, c); o != outOK {
			env.close()
			return nil, fmt.Errorf("warm-up class %d: %v (outcome %d)", c, err, o)
		}
	}
	t4 := time.Now()
	r.setupSec = append(r.setupSec, t4.Sub(t0).Seconds())
	r.buildSec, r.solveSec, r.modelSec, r.startSec = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()
	return env, nil
}
