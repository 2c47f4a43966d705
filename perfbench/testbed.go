package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"leime"
	"leime/internal/exitsetting"
	"leime/internal/metrics"
	"leime/internal/model"
	"leime/internal/netem"
	"leime/internal/offload"
	"leime/internal/runtime"
	"leime/internal/sim"
	"leime/internal/telemetry"
	"leime/internal/trace"
)

// testbed-paper: LEIME as the paper runs it. Compute and links are
// modelled sleeps, so the workload measures how closely the runtime
// achieves modelled time and what the controllers decide.
const (
	tbScale   = runtime.Scale(0.1)
	tbDevices = 2
	// tbRate is each device's mean Poisson arrivals per one-second slot.
	tbRate = 3.0
	tbTau  = 1.0 // slot length, model seconds
	// tbWarmupSlots lead every run, untimed: set-up ends when the devices
	// reach the first measured slot. The first rate renegotiation falls on
	// the last of them.
	tbWarmupSlots = 10
)

// replay is a trace.Process that replays pre-drawn per-slot arrival counts
// and notes when each slot's count is drawn: the device draws it at the
// slot boundary, so the notes show how late the device ran its schedule.
type replay struct {
	counts []int
	drawn  []time.Time
}

func (p *replay) Next() int {
	p.drawn = append(p.drawn, time.Now())
	if len(p.drawn) > len(p.counts) {
		return 0
	}
	return p.counts[len(p.drawn)-1]
}

func (p *replay) Mean() float64 { return tbRate }

// lags returns how late each slot's draw ran behind the first draw plus
// whole slots, in seconds.
func (p *replay) lags() []float64 {
	out := make([]float64, len(p.drawn))
	for t, at := range p.drawn {
		due := p.drawn[0].Add(tbScale.Seconds(float64(t) * tbTau))
		out[t] = at.Sub(due).Seconds()
	}
	return out
}

func runTestbed(cfg config) (*run, error) {
	r := &run{}
	counts, err := testbedCounts(cfg)
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < setupReps; rep++ {
		if err := testbedPass(cfg, r, counts, rep == setupReps-1); err != nil {
			return nil, err
		}
	}
	r.allocSec = timeAllocate()
	return r, nil
}

// testbedCounts draws each device's per-slot arrival counts from the seed:
// the warm-up slots, then enough slots to fill cfg.seconds.
func testbedCounts(cfg config) ([][]int, error) {
	slots := tbWarmupSlots + max(10, int(cfg.seconds/tbScale.Seconds(tbTau).Seconds()))
	counts := make([][]int, tbDevices)
	for d := range counts {
		p, err := trace.NewPoisson(tbRate, cfg.seed*1000+int64(d))
		if err != nil {
			return nil, err
		}
		for t := 0; t < slots; t++ {
			counts[d] = append(counts[d], p.Next())
		}
	}
	return counts, nil
}

// buildTestbed builds the paper's system: ME-Inception v3 on Raspberry Pi
// devices under the testbed environment.
func buildTestbed() (*leime.System, error) {
	return leime.Build(leime.Options{Arch: "inception-v3", Env: leime.TestbedEnv(leime.RaspberryPi3B)})
}

// resolveExits re-solves the exit setting of a built system with the
// branch-and-bound solver alone and checks it agrees with Build's choice.
func resolveExits(sys *leime.System) error {
	p, err := model.ByName(sys.Arch())
	if err != nil {
		return err
	}
	in, err := exitsetting.NewInstance(p, sys.Sigma(), sys.Env())
	if err != nil {
		return err
	}
	got := in.Solve()
	e1, e2, e3 := sys.Exits()
	if got.E1 != e1 || got.E2 != e2 || got.E3 != e3 {
		return fmt.Errorf("exit setting re-solve gave %d/%d/%d, Build chose %d/%d/%d", got.E1, got.E2, got.E3, e1, e2, e3)
	}
	return nil
}

// testbedPass sets the testbed up once: build, solve, predict on the model
// clock, start the cloud and the edge, register both devices and run the
// warm-up slots. With measure it then runs every slot and records the
// outcome in r; without, the devices stop at the first measured slot and
// the servers are torn down.
func testbedPass(cfg config, r *run, counts [][]int, measure bool) error {
	t0 := time.Now()
	sys, err := buildTestbed()
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := resolveExits(sys); err != nil {
		return err
	}
	t2 := time.Now()
	params, env := sys.Params(), sys.Env()
	lyapunov := offload.Lyapunov()
	dev := offload.Device{FLOPS: env.DeviceFLOPS, BandwidthBps: env.DeviceEdge.BandwidthBps, LatencySec: env.DeviceEdge.LatencySec, ArrivalMean: tbRate}
	specs := make([]sim.DeviceSpec, tbDevices)
	for d := range specs {
		specs[d] = sim.DeviceSpec{Device: dev, Policy: &lyapunov, Arrivals: &replay{counts: counts[d]}}
	}
	pred, err := sim.RunEvents(sim.EventConfig{
		Model: params, Devices: specs, EdgeFLOPS: env.EdgeFLOPS, CloudFLOPS: env.CloudFLOPS, EdgeCloud: env.EdgeCloud,
		TauSec: tbTau, V: 1e4, Slots: len(counts[0]), WarmupSlots: tbWarmupSlots, Seed: cfg.seed,
	})
	if err != nil {
		return fmt.Errorf("model-clock prediction: %w", err)
	}
	r.predicted = pred.TCT.Mean() * float64(tbScale)
	t3 := time.Now()

	var tr *telemetry.Tracer
	if cfg.traced {
		tr = telemetry.NewTracer(spanCapacity)
	}
	cloud, err := runtime.StartCloud(runtime.CloudConfig{
		Addr: "127.0.0.1:0", FLOPS: env.CloudFLOPS, Block3FLOPs: params.Mu[2], TimeScale: tbScale, Tracer: tr,
	})
	if err != nil {
		return err
	}
	defer cloud.Close()
	edge, err := runtime.StartEdge(runtime.EdgeConfig{
		Addr: "127.0.0.1:0", FLOPS: env.EdgeFLOPS, Model: params, CloudAddr: cloud.Addr(),
		CloudLink: netem.Link{BandwidthBps: env.EdgeCloud.BandwidthBps, Latency: time.Duration(env.EdgeCloud.LatencySec * float64(time.Second))},
		TimeScale: tbScale, Tracer: tr,
	})
	if err != nil {
		return err
	}
	defer edge.Close()

	before := snapProc()
	procs, stats, err := runDevices(cfg, sys, edge.Addr(), counts, measure, tr)
	end := time.Now()
	if err != nil {
		return err
	}
	// Set-up ends when the last device draws its first measured slot.
	var t4 time.Time
	for _, p := range procs {
		if at := p.drawn[tbWarmupSlots]; at.After(t4) {
			t4 = at
		}
	}
	r.setupSec = append(r.setupSec, t4.Sub(t0).Seconds())
	r.buildSec, r.solveSec, r.modelSec, r.startSec = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()
	if !measure {
		return nil
	}
	r.proc = before.until(snapProc())
	r.tracer = tr
	testbedOutcome(r, params, stats, procs, counts)
	r.note("%.2f tasks/s completed", float64(r.tally.completed)/end.Sub(procs[0].drawn[0]).Seconds())
	r.modelled = func(s telemetry.Span) (float64, bool) {
		var flops, nodeFLOPS float64
		switch s.Name {
		case "device.block1", "device.block2", "device.block3":
			flops, nodeFLOPS = params.Mu[s.Name[len(s.Name)-1]-'1'], env.DeviceFLOPS
		case "cloud.block3":
			flops, nodeFLOPS = params.Mu[2], env.CloudFLOPS
		default:
			// Edge blocks run on KKT shares the devices renegotiate while
			// the run goes on, so their modelled time is not fixed.
			return 0, false
		}
		return tbScale.Seconds(flops / nodeFLOPS).Seconds(), true
	}
	return nil
}

// runDevices runs the testbed's devices against the edge at edgeAddr, each
// replaying its arrival counts, and waits for all of them. With measure
// they run every slot; without, they stop at the first measured slot.
func runDevices(cfg config, sys *leime.System, edgeAddr string, counts [][]int, measure bool, tr *telemetry.Tracer) ([]*replay, []*runtime.DeviceStats, error) {
	params, env := sys.Params(), sys.Env()
	lyapunov := offload.Lyapunov()
	procs := make([]*replay, len(counts))
	stats := make([]*runtime.DeviceStats, len(counts))
	errs := make([]error, len(counts))
	// A device that fails stops the others at their next slot.
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	for d := range counts {
		procs[d] = &replay{counts: counts[d]}
		slots := len(counts[d])
		if !measure {
			// The set-up ends when the first measured slot begins; a
			// set-up-only pass stops there.
			procs[d].counts, slots = counts[d][:tbWarmupSlots], tbWarmupSlots+1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[d], errs[d] = runtime.RunDevice(runtime.DeviceConfig{
				ID: fmt.Sprintf("device-%d", d+1), FLOPS: env.DeviceFLOPS, Model: params, EdgeAddr: edgeAddr,
				Uplink:   netem.Link{BandwidthBps: env.DeviceEdge.BandwidthBps, Latency: time.Duration(env.DeviceEdge.LatencySec * float64(time.Second))},
				Arrivals: procs[d], ArrivalMean: tbRate, Policy: &lyapunov,
				TauSec: tbTau, V: 1e4, Slots: slots, WarmupSlots: tbWarmupSlots, TimeScale: tbScale, AdaptEvery: 10,
				Seed: cfg.seed*1000 + int64(d)*97, Tracer: tr, Stop: stop,
			})
			if errs[d] != nil {
				stopOnce.Do(func() { close(stop) })
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	for _, p := range procs {
		if len(p.drawn) <= tbWarmupSlots {
			return nil, nil, fmt.Errorf("a device stopped before its first measured slot")
		}
	}
	return procs, stats, nil
}

// maxExitZ bounds how far a device's count of tasks at any one exit may
// lie from what the exit rates σ predict, in binomial standard deviations.
// A healthy run exceeds it with probability below 1e-6 per count.
const maxExitZ = 5

// testbedOutcome folds the devices' reports into r and checks them: every
// generated task reached exactly one terminal state, and the split of
// tasks over the exits is the one σ predicts.
func testbedOutcome(r *run, params offload.ModelParams, stats []*runtime.DeviceStats, procs []*replay, counts [][]int) {
	scale := float64(tbScale)
	warmTasks := make(map[string]uint64)
	var ratio, localSec, remoteSec, n float64
	for d, st := range stats {
		id := fmt.Sprintf("device-%d", d+1)
		var generated, exits int
		for t, c := range counts[d] {
			generated += c
			if t < tbWarmupSlots {
				warmTasks[id] += uint64(c)
			}
		}
		for _, c := range st.ExitCounts {
			exits += c
		}
		// RunDevice counts failed tasks in Completed too.
		if st.Generated != generated || st.Completed != st.Generated || exits != st.Completed-st.Errors {
			r.fail("%s does not balance: scheduled %d, generated %d, completed %d, errors %d, answered by an exit %d",
				id, generated, st.Generated, st.Completed, st.Errors, exits)
		}
		// Each task's exit class is drawn from σ, and without a
		// degradation policy every reply must name the exit asked for, so
		// the exit counts are binomial around the σ split.
		share := [3]float64{params.Sigma[0], params.Sigma[1] - params.Sigma[0], 1 - params.Sigma[1]}
		for k, p := range share {
			want := float64(exits) * p
			if z := math.Abs(float64(st.ExitCounts[k])-want) / math.Sqrt(max(1, want*(1-p))); z > maxExitZ {
				r.fail("%s answered %d of %d tasks at exit %d; σ predicts %.0f (%.1f standard deviations off, limit %d)",
					id, st.ExitCounts[k], exits, k+1, want, z, maxExitZ)
			}
		}
		r.tally.attempted += st.Generated
		r.tally.rejected += st.Fallbacks
		r.tally.errors += st.Errors + st.Degraded
		r.tally.completed += st.Completed - st.Errors - st.Fallbacks - st.Degraded
		for _, v := range summarySamples(&st.TCT) {
			r.tct = append(r.tct, v*scale)
		}
		r.lags = append(r.lags, procs[d].lags()...)
		ratio += st.Ratio.Mean()
		k := float64(st.LocalStage.Count())
		localSec += st.LocalStage.Mean() * k * scale
		remoteSec += st.RemoteStage.Mean() * k * scale
		n += k
	}
	r.done = r.tally.completed
	r.device = &deviceSummary{offloadRatio: ratio / float64(len(stats)), localSec: localSec / max(1, n), remoteSec: remoteSec / max(1, n)}
	r.keep = func(root telemetry.Span) bool { return root.Task > warmTasks[root.Device] }
	r.checkSpans = checkExitSpans
}

// checkExitSpans compares, for every kept task that completed, the exit the
// device recorded with the deepest block that ran for the task on any
// tier: block k runs only for tasks whose exit is k or deeper, so the two
// differ only when a reply named another exit than the one computed.
func checkExitSpans(spans []telemetry.Span, keep func(root telemetry.Span) bool) error {
	type task struct {
		root          *telemetry.Span
		exit, deepest int
	}
	byTrace := make(map[uint64]*task)
	for i := range spans {
		s := &spans[i]
		t := byTrace[s.Trace]
		if t == nil {
			t = &task{}
			byTrace[s.Trace] = t
		}
		switch {
		case s.Name == "task" && s.Parent == 0:
			t.root = s
		case s.Name == "exit":
			t.exit = s.Exit
		case strings.Contains(s.Name, ".block"):
			t.deepest = max(t.deepest, int(s.Name[len(s.Name)-1]-'0'))
		}
	}
	var checked, wrong int
	var first string
	for _, t := range byTrace {
		if t.root == nil || t.exit == 0 || !keep(*t.root) {
			continue
		}
		checked++
		if t.exit != t.deepest {
			if wrong == 0 {
				first = fmt.Sprintf("%s task %d answered at exit %d after block %d", t.root.Device, t.root.Task, t.exit, t.deepest)
			}
			wrong++
		}
	}
	if checked == 0 {
		return fmt.Errorf("no completed task carries an exit span")
	}
	if wrong > 0 {
		return fmt.Errorf("%d of %d traced tasks answered at another exit than the deepest block run, e.g. %s", wrong, checked, first)
	}
	return nil
}

// summarySamples recovers every observation of a summary. metrics.Summary
// exposes order statistics only; reading each nearest rank in turn gives
// the sorted samples, so the devices' distributions merge exactly.
func summarySamples(s *metrics.Summary) []float64 {
	n := s.SampleSize()
	out := make([]float64, n)
	for k := 1; k <= n; k++ {
		out[k-1] = s.Percentile(100 * (float64(k) - 0.5) / float64(n))
	}
	return out
}
