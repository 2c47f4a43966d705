package sim

import (
	"fmt"
	"math/rand"

	"leime/internal/cluster"
	"leime/internal/control"
	"leime/internal/metrics"
	"leime/internal/offload"
	"leime/internal/telemetry"
	"leime/internal/trace"
)

// EventConfig configures an EventSim run. The fields mirror SlotConfig; the
// event simulator executes every task end-to-end through explicit CPU and
// link stations instead of evaluating the slot-model cost expressions.
type EventConfig struct {
	// Model is the deployed ME-DNN.
	Model offload.ModelParams
	// Devices are the end devices; device i starts homed at edge i mod Edges.
	Devices []DeviceSpec
	// EdgeFLOPS is each edge's capability; CloudFLOPS is the shared cloud's.
	EdgeFLOPS  float64
	CloudFLOPS float64
	// Edges is the fleet size: that many identical edges of EdgeFLOPS each.
	// Values <= 1 mean the paper's single edge. With more, every device
	// holds a tenancy (and a KKT share) at exactly one edge at a time, folds
	// every live edge's backlog and capacity into its drift term each slot
	// (offload.SelectEdge), and migrates when another edge wins past
	// offload.Hysteresis — the model-clock twin of the runtime's federation
	// mode. Work already launched stays on the edge it was sent to.
	Edges int
	// KillAtSlot, when positive, removes edge 0 from every device's
	// candidate set from that slot on — the federation chaos experiment.
	// Work already queued there still drains (a fail-stop for new traffic),
	// so conservation holds. It needs at least two edges.
	KillAtSlot int
	// EdgeCloud is the edge–cloud path.
	EdgeCloud cluster.Path
	// TauSec is the slot length for decision epochs.
	TauSec float64
	// V is the Lyapunov penalty weight.
	V float64
	// Slots is the generation horizon; the simulation drains afterwards.
	Slots int
	// WarmupSlots excludes early arrivals from statistics.
	WarmupSlots int
	// DeadlineSec, when positive, marks tasks completing later than this
	// many (model) seconds after generation as deadline misses. The paper
	// lists deadline requirements among the wild edge's application
	// characteristics (§II-A); this knob measures them.
	DeadlineSec float64
	// Seed drives arrival sampling, exit sampling and offload coin flips.
	Seed int64
	// EdgePolicy applies the edge control plane to every device's edge
	// share, mirroring runtime.ControlPolicy: a static or adaptive batch
	// window, a backlog budget whose rejections re-run tasks on their
	// device, and deadline admission that sheds infeasible work outright.
	// The zero value keeps the exact FIFO model.
	EdgePolicy Policy
	// Tracer, when non-nil, records one trace per task with the same span
	// taxonomy the testbed emits (task, device.decision, rpc.*, *.queue,
	// *.block*, exit). Sim spans are stamped in model seconds on the
	// engine clock rather than wall time.
	Tracer *telemetry.Tracer
}

// EventResult is the outcome of an EventSim run.
type EventResult struct {
	// TCT summarizes end-to-end completion times of post-warmup tasks.
	TCT metrics.Summary
	// SlotTCT is the mean TCT of tasks generated in each slot.
	SlotTCT metrics.Series
	// PerDeviceTCT summarizes completion times per device (post-warmup).
	PerDeviceTCT []metrics.Summary
	// Ratio is the per-slot mean offloading decision across devices.
	Ratio metrics.Series
	// ExitCounts tallies tasks by the exit they left through.
	ExitCounts [3]int
	// Generated and Completed count tasks; they must match after draining.
	Generated, Completed int
	// DeadlineMisses counts post-warmup tasks exceeding the configured
	// deadline (zero when no deadline is set); shed tasks are included.
	DeadlineMisses int
	// Fallbacks counts tasks the edge refused under the policy's backlog
	// budget that re-ran their remaining blocks on the device — the
	// simulated mirror of runtime.DeviceStats.Fallbacks.
	Fallbacks int
	// Sheds counts tasks deadline admission refused outright. They count
	// toward Completed (conservation) but not ExitCounts: the inference
	// never produced an answer.
	Sheds int
	// Utilization maps each station (per-device CPUs, uplinks, edge shares,
	// the edge-cloud link and the cloud CPU) to the fraction of the
	// generation horizon it spent serving.
	Utilization map[string]float64
	// Migrations counts tenancy moves between edges (zero with one edge).
	Migrations int
	// PerEdgeServed counts the first blocks each edge admitted — the
	// load-spreading evidence of edge selection.
	PerEdgeServed []int
}

// edges resolves the fleet size: Edges <= 1 is the single edge.
func (c EventConfig) edges() int {
	if c.Edges > 1 {
		return c.Edges
	}
	return 1
}

// Validate reports whether the configuration is runnable.
func (c EventConfig) Validate() error {
	if len(c.Devices) == 0 {
		return fmt.Errorf("sim: no devices configured")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.EdgeFLOPS <= 0 || c.CloudFLOPS <= 0 {
		return fmt.Errorf("sim: edge (%v) and cloud (%v) FLOPS must be positive", c.EdgeFLOPS, c.CloudFLOPS)
	}
	if c.EdgeCloud.BandwidthBps <= 0 {
		return fmt.Errorf("sim: edge-cloud bandwidth %v must be positive", c.EdgeCloud.BandwidthBps)
	}
	if c.TauSec <= 0 || c.V <= 0 {
		return fmt.Errorf("sim: TauSec (%v) and V (%v) must be positive", c.TauSec, c.V)
	}
	if c.Slots <= 0 || c.WarmupSlots < 0 || c.WarmupSlots >= c.Slots {
		return fmt.Errorf("sim: bad horizon (slots=%d, warmup=%d)", c.Slots, c.WarmupSlots)
	}
	if c.KillAtSlot < 0 || (c.KillAtSlot > 0 && c.edges() < 2) {
		return fmt.Errorf("sim: kill at slot %d needs a surviving edge (edges=%d)", c.KillAtSlot, c.edges())
	}
	for i, d := range c.Devices {
		if err := d.Device.Validate(); err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
	}
	return nil
}

// RunEvents executes the per-task discrete-event simulation.
func RunEvents(cfg EventConfig) (*EventResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, edges := len(cfg.Devices), cfg.edges()
	ctrl, err := offload.NewController(offload.Config{Model: cfg.Model, TauSec: cfg.TauSec, V: cfg.V})
	if err != nil {
		return nil, err
	}
	devices := make([]offload.Device, n)
	arrivals := make([]trace.Process, n)
	policies := make([]offload.Policy, n)
	for i, d := range cfg.Devices {
		devices[i] = d.Device
		arrivals[i] = d.Arrivals
		if arrivals[i] == nil {
			p, err := trace.NewPoisson(d.Device.ArrivalMean, cfg.Seed+int64(i)*104729)
			if err != nil {
				return nil, err
			}
			arrivals[i] = p
		}
		if d.Policy != nil {
			policies[i] = *d.Policy
		} else {
			policies[i] = offload.Lyapunov()
		}
	}

	pol := cfg.EdgePolicy.withDefaults()
	s := &eventState{
		cfg:      cfg,
		policy:   pol,
		ctrl:     ctrl,
		devices:  devices,
		home:     make([]int, n),
		shares:   make([]float64, n),
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		res:      &EventResult{PerDeviceTCT: make([]metrics.Summary, n), PerEdgeServed: make([]int, edges)},
		devCPU:   make([]*Station, n),
		uplink:   make([]*Station, n),
		edgeCPU:  make([][]*Station, edges),
		h1:       make([]int, n),
		slotTCT:  make([]float64, cfg.Slots),
		slotDone: make([]int, cfg.Slots),
		slotGen:  make([]int, cfg.Slots),
	}
	for i := range s.devCPU {
		s.devCPU[i] = NewStation(fmt.Sprintf("dev%d-cpu", i))
		s.uplink[i] = NewStation(fmt.Sprintf("dev%d-uplink", i))
		s.home[i] = i % edges
	}
	for e := range s.edgeCPU {
		s.edgeCPU[e] = make([]*Station, n)
		for i := range s.edgeCPU[e] {
			name := fmt.Sprintf("edge-share%d", i)
			if edges > 1 {
				name = fmt.Sprintf("edge%d-share%d", e, i)
			}
			st := NewStation(name)
			st.SetBatch(pol.Batch)
			if pol.AdaptiveBatch {
				// One controller per share, exactly as the testbed runs one
				// control.Window per tenant executor — fed by the engine
				// clock.
				st.SetWindow(control.NewWindow(control.WindowConfig{
					MaxSize:      pol.Batch.MaxSize,
					DelayCapSec:  pol.Batch.MaxDelaySec,
					TargetP99Sec: pol.TargetP99Sec,
				}), pol.Batch.MaxSize)
			}
			s.edgeCPU[e][i] = st
		}
		if err := s.reallocate(e); err != nil {
			return nil, err
		}
	}
	s.cloudLink = NewStation("edge-cloud-link")
	s.cloudCPU = NewStation("cloud-cpu")

	// Drive slot by slot: generate this slot's tasks, then advance the
	// engine to the slot boundary so queue observations at the next decision
	// epoch reflect completed work.
	for t := 0; t < cfg.Slots; t++ {
		slotStart := float64(t) * cfg.TauSec
		s.eng.RunUntil(slotStart)
		killed := cfg.KillAtSlot > 0 && t >= cfg.KillAtSlot
		var ratioSum float64
		for i := range devices {
			s.devices[i] = cfg.Devices[i].linkAt(t)
			m := arrivals[i].Next()
			slot := offload.Slot{
				Arrivals:       float64(m),
				State:          offload.State{Q: float64(s.devCPU[i].QueueLen()), H: float64(s.h1[i])},
				EdgeShareFLOPS: s.shares[i] * cfg.EdgeFLOPS,
			}
			if edges > 1 {
				if slot, err = s.selectEdge(i, slot, killed); err != nil {
					return nil, err
				}
			}
			x := policies[i].Decide(ctrl, s.devices[i], slot)
			ratioSum += x
			for j := 0; j < m; j++ {
				s.generate(i, t, slotStart, x)
			}
		}
		s.res.Ratio.Append(ratioSum / float64(n))
	}
	// Drain: every generated task must complete.
	budget := 100 * (s.res.Generated + 1) * 8
	if _, err := s.eng.Run(budget); err != nil {
		return nil, err
	}
	for t := 0; t < cfg.Slots; t++ {
		if s.slotDone[t] > 0 {
			s.res.SlotTCT.Append(s.slotTCT[t] / float64(s.slotDone[t]))
		} else {
			s.res.SlotTCT.Append(0)
		}
	}
	horizon := float64(cfg.Slots) * cfg.TauSec
	s.res.Utilization = make(map[string]float64)
	groups := append([][]*Station{s.devCPU, s.uplink, {s.cloudLink, s.cloudCPU}}, s.edgeCPU...)
	for _, group := range groups {
		for _, st := range group {
			s.res.Utilization[st.Name()] = st.Utilization(horizon)
		}
	}
	if s.res.Completed != s.res.Generated {
		return nil, fmt.Errorf("sim: conservation violated: generated %d, completed %d", s.res.Generated, s.res.Completed)
	}
	return s.res, nil
}

// eventState is the mutable state of one EventSim run.
type eventState struct {
	cfg     EventConfig
	policy  Policy // cfg.EdgePolicy with defaults resolved
	ctrl    *offload.Controller
	devices []offload.Device
	home    []int     // device -> current edge
	shares  []float64 // device -> KKT share of its home edge (fraction)
	rng     *rand.Rand
	eng     Engine
	res     *EventResult

	devCPU  []*Station   // per-device local CPU
	uplink  []*Station   // per-device uplink to the edge
	edgeCPU [][]*Station // [edge][device] share (Docker-quota equivalent)
	h1      []int        // per-device first-block tasks pending at an edge

	cloudLink *Station
	cloudCPU  *Station

	slotTCT  []float64
	slotDone []int
	slotGen  []int
}

// tenants returns edge e's resident device indices in index order.
func (s *eventState) tenants(e int) []int {
	var out []int
	for i, h := range s.home {
		if h == e {
			out = append(out, i)
		}
	}
	return out
}

// reallocate re-solves edge e's KKT allocation over its residents — the
// simulation twin of the runtime edge's registration/unregistration path.
func (s *eventState) reallocate(e int) error {
	ids := s.tenants(e)
	if len(ids) == 0 {
		return nil
	}
	devs := make([]offload.Device, len(ids))
	for k, i := range ids {
		devs[k] = s.devices[i]
	}
	shares, err := offload.Allocate(devs, s.cfg.EdgeFLOPS)
	if err != nil {
		return err
	}
	for k, i := range ids {
		s.shares[i] = shares[k]
	}
	return nil
}

// shareAt is device i's share at edge e: its solved share when resident, a
// one-more-tenant estimate when work lands on an edge it has already left.
func (s *eventState) shareAt(i, e int) float64 {
	if s.home[i] == e {
		return s.shares[i]
	}
	return 1 / float64(len(s.tenants(e))+1)
}

// backlogSec estimates edge e's queued work in seconds: jobs waiting on its
// share stations, costed at a first-block burn against the full capability
// — the heartbeat's BacklogSec.
func (s *eventState) backlogSec(e int) float64 {
	jobs := 0
	for _, st := range s.edgeCPU[e] {
		jobs += st.QueueLen()
	}
	return float64(jobs) * s.cfg.Model.Mu[0] / s.cfg.EdgeFLOPS
}

// selectEdge is device i's federation step for one decision epoch: fold
// every live edge into the drift term, migrate past offload.Hysteresis, and
// return the slot as seen from the chosen edge. slot arrives describing the
// resident edge.
func (s *eventState) selectEdge(i int, slot offload.Slot, killed bool) (offload.Slot, error) {
	cur, resident := s.home[i], -1
	var cands []int
	var states []offload.EdgeState
	for e := range s.edgeCPU {
		if killed && e == 0 {
			continue
		}
		st := offload.EdgeState{QueueSec: s.backlogSec(e)}
		if e == cur {
			resident = len(cands)
			st.ShareFLOPS, st.Backlog = slot.EdgeShareFLOPS, slot.State.H
		} else {
			st.ShareFLOPS = s.cfg.EdgeFLOPS / float64(len(s.tenants(e))+1)
		}
		cands = append(cands, e)
		states = append(states, st)
	}
	best, evals := s.ctrl.SelectEdge(s.devices[i], slot.Arrivals, slot.State.Q, states)
	// Validate keeps a surviving edge, so best is a candidate.
	best = offload.Hysteresis(evals, best, resident)
	if target := cands[best]; target != cur {
		s.home[i] = target
		s.res.Migrations++
		// Both allocations shift: the origin redistributes the leaver's
		// share, the target squeezes everyone to fit the joiner.
		if err := s.reallocate(cur); err != nil {
			return slot, err
		}
		if err := s.reallocate(target); err != nil {
			return slot, err
		}
		states[best].ShareFLOPS = s.shares[i] * s.cfg.EdgeFLOPS
	}
	slot.State.H = states[best].Backlog
	slot.EdgeShareFLOPS = states[best].ShareFLOPS
	return slot, nil
}

// sampleExit picks the exit a task will leave through from the sigma vector.
func (s *eventState) sampleExit() int {
	r := s.rng.Float64()
	switch {
	case r < s.cfg.Model.Sigma[0]:
		return 1
	case r < s.cfg.Model.Sigma[1]:
		return 2
	default:
		return 3
	}
}

// generate creates one task on device i in slot t and routes it through the
// pipeline at the device's current edge. The offloading coin uses this
// slot's ratio x. The edge binding is captured here: a later migration does
// not move launched work.
func (s *eventState) generate(i, t int, at float64, x float64) {
	s.res.Generated++
	s.slotGen[t]++
	exit := s.sampleExit()
	offloaded := s.rng.Float64() < x
	task := &simTask{dev: i, edge: s.home[i], slot: t, born: at, exit: exit}
	if tr := s.cfg.Tracer; tr != nil {
		task.id = uint64(s.res.Generated)
		task.trace = tr.NewID()
		task.root = tr.NewID()
	}
	s.eng.At(at, func() {
		note := "local"
		if offloaded {
			note = "offload"
		}
		s.span(task, task.root, "device.decision", note, at, at)
		if offloaded {
			s.launchEdge(task)
		} else {
			s.launchLocal(task)
		}
	})
}

type simTask struct {
	dev  int
	edge int // the edge the task's offloaded blocks run on
	slot int
	born float64
	exit int
	// fellBack marks a task the edge refused with backpressure that re-ran
	// blocks on its device.
	fellBack bool
	// id/trace/root are the task's span identity; zero when tracing is off.
	id    uint64
	trace uint64
	root  uint64
}

// admitEdge applies the edge policy to a submission of dur service seconds
// for block b on the task's edge share at the current engine time. The wait
// quote is the share's busy horizon — exact in the busy-horizon model, so no
// learned bias correction is needed (the fixed point a testbed
// control.Predictor converges toward). Deadline admission checks the
// predicted completion against the task's remaining DeadlineSec budget; it
// runs before the capacity check, mirroring the runtime's order. A refusal
// closes the hop's rpc span and returns false: a deadline refusal sheds the
// task (the runtime's ErrDeadlineInfeasible), a capacity refusal re-runs
// blocks b.. on the device (ErrOverloadCapacity, the degrade-to-local
// fallback).
func (s *eventState) admitEdge(task *simTask, rpc *openSpan, dur float64, b int) bool {
	now := s.eng.Now()
	st := s.edgeCPU[task.edge][task.dev]
	switch {
	case s.policy.DeadlineAdmission && s.cfg.DeadlineSec > 0 &&
		now+st.Backlog(now)+dur > task.born+s.cfg.DeadlineSec:
		s.close(task, rpc, now)
		s.shed(task)
	case s.policy.MaxBacklogSec > 0 && st.Backlog(now)+dur > s.policy.MaxBacklogSec:
		s.close(task, rpc, now)
		task.fellBack = true
		s.runLocalBlocks(task, b)
	default:
		return true
	}
	return false
}

// span records one finished span on the trace clock (model seconds); no-op
// without a tracer.
func (s *eventState) span(task *simTask, parent uint64, name, note string, start, end float64) {
	if s.cfg.Tracer != nil && task.trace != 0 {
		s.record(task, telemetry.Span{Span: s.cfg.Tracer.NewID(), Parent: parent, Name: name, Note: note, Start: start, End: end})
	}
}

// record stamps sp with the task's trace identity and records it; callers
// have checked that the task is traced.
func (s *eventState) record(task *simTask, sp telemetry.Span) {
	sp.Trace, sp.Device, sp.Task = task.trace, fmt.Sprintf("dev%d", task.dev), task.id
	s.cfg.Tracer.Record(sp)
}

// openSpan is a span whose end is not yet known — an RPC hop whose subtree
// is still executing. Children parent to its pre-allocated ID; close records
// it once the subtree finishes.
type openSpan struct {
	id     uint64
	parent uint64
	name   string
	start  float64
}

// ID returns the span's pre-allocated identifier; zero on nil (tracing off).
func (o *openSpan) ID() uint64 {
	if o == nil {
		return 0
	}
	return o.id
}

func (s *eventState) open(task *simTask, parent uint64, name string) *openSpan {
	tr := s.cfg.Tracer
	if tr == nil || task.trace == 0 {
		return nil
	}
	return &openSpan{id: tr.NewID(), parent: parent, name: name, start: s.eng.Now()}
}

func (s *eventState) close(task *simTask, o *openSpan, end float64) {
	if o != nil {
		s.record(task, telemetry.Span{Span: o.id, Parent: o.parent, Name: o.name, Start: o.start, End: end})
	}
}

// launchLocal runs the first block on the device CPU.
func (s *eventState) launchLocal(task *simTask) {
	i := task.dev
	dur := s.cfg.Model.Mu[0] / s.devices[i].FLOPS
	s.devCPU[i].SubmitObserved(&s.eng, dur, 0, func(enq, start, fin float64) {
		s.span(task, task.root, "device.queue", "", enq, start)
		s.span(task, task.root, "device.block1", "", start, fin)
		if task.exit == 1 {
			s.complete(task, fin)
			return
		}
		// Ship the First-exit intermediate tensor to the edge.
		s.transferToEdge(task, s.cfg.Model.D[1], "rpc.second_block", s.secondBlock)
	})
}

// launchEdge ships the raw input to the task's edge and runs the first block
// there on the device's share. Admission runs where the runtime's does: at
// the edge, after the uplink transfer.
func (s *eventState) launchEdge(task *simTask) {
	i, e := task.dev, task.edge
	s.h1[i]++
	s.transferToEdge(task, s.cfg.Model.D[0], "rpc.first_block", func(task *simTask, rpc *openSpan) {
		dur := s.cfg.Model.Mu[0] / (s.shareAt(i, e) * s.cfg.EdgeFLOPS)
		if !s.admitEdge(task, rpc, dur, 1) {
			s.h1[i]--
			return
		}
		s.res.PerEdgeServed[e]++
		s.edgeCPU[e][i].SubmitObserved(&s.eng, dur, 0, func(enq, start, fin float64) {
			s.h1[i]--
			s.span(task, rpc.ID(), "edge.queue", "", enq, start)
			s.span(task, rpc.ID(), "edge.block1", "", start, fin)
			if task.exit == 1 {
				s.close(task, rpc, fin)
				s.complete(task, fin)
				return
			}
			s.secondBlock(task, rpc)
		})
	})
}

// transferToEdge serializes bytes on the device's uplink, then hands the
// task to next after the propagation delay. The named RPC span opens at
// submission and stays open across the remote subtree — next receives it and
// must close it at the subtree's finish time, mirroring how a testbed RPC
// span covers the full round trip.
func (s *eventState) transferToEdge(task *simTask, bytes float64, rpcName string, next func(*simTask, *openSpan)) {
	i := task.dev
	rpc := s.open(task, task.root, rpcName)
	dur := bytes * 8 / s.devices[i].BandwidthBps
	s.uplink[i].Submit(&s.eng, dur, s.devices[i].LatencySec, func(float64) {
		next(task, rpc)
	})
}

// secondBlock runs block 2 on the device's share at the task's edge; tasks
// surviving the Second exit continue to the cloud. rpc is the enclosing
// hop's open span. The continuation re-passes admission, exactly as every
// runtime executor submission does: a capacity refusal finishes the
// remaining blocks on the device, a deadline refusal sheds.
func (s *eventState) secondBlock(task *simTask, rpc *openSpan) {
	i, e := task.dev, task.edge
	dur := s.cfg.Model.Mu[1] / (s.shareAt(i, e) * s.cfg.EdgeFLOPS)
	if !s.admitEdge(task, rpc, dur, 2) {
		return
	}
	s.edgeCPU[e][i].SubmitObserved(&s.eng, dur, 0, func(enq, start, fin float64) {
		s.span(task, rpc.ID(), "edge.queue", "", enq, start)
		s.span(task, rpc.ID(), "edge.block2", "", start, fin)
		if task.exit == 2 {
			s.close(task, rpc, fin)
			s.complete(task, fin)
			return
		}
		cloudRPC := s.open(task, rpc.ID(), "rpc.cloud")
		linkDur := s.cfg.Model.D[2] * 8 / s.cfg.EdgeCloud.BandwidthBps
		s.cloudLink.Submit(&s.eng, linkDur, s.cfg.EdgeCloud.LatencySec, func(float64) {
			cloudDur := s.cfg.Model.Mu[2] / s.cfg.CloudFLOPS
			s.cloudCPU.SubmitObserved(&s.eng, cloudDur, 0, func(enq, start, fin float64) {
				s.span(task, cloudRPC.ID(), "cloud.queue", "", enq, start)
				s.span(task, cloudRPC.ID(), "cloud.block3", "", start, fin)
				s.close(task, cloudRPC, fin)
				s.close(task, rpc, fin)
				s.complete(task, fin)
			})
		})
	})
}

// runLocalBlocks burns blocks first..task.exit on the device CPU — the
// degrade-to-local path after an edge capacity refusal, mirroring the
// runtime device's runLocalBlocks.
func (s *eventState) runLocalBlocks(task *simTask, first int) {
	i := task.dev
	var step func(b int)
	step = func(b int) {
		dur := s.cfg.Model.Mu[b-1] / s.devices[i].FLOPS
		s.devCPU[i].SubmitObserved(&s.eng, dur, 0, func(enq, start, fin float64) {
			s.span(task, task.root, "device.queue", "", enq, start)
			s.span(task, task.root, fmt.Sprintf("device.block%d", b), "", start, fin)
			if b >= task.exit {
				s.complete(task, fin)
				return
			}
			step(b + 1)
		})
	}
	step(first)
}

// shed records a task deadline admission refused outright: it counts toward
// Completed (conservation) and DeadlineMisses, but produced no exit.
func (s *eventState) shed(task *simTask) {
	if s.cfg.Tracer != nil && task.trace != 0 {
		s.record(task, telemetry.Span{Span: task.root, Name: "task", Note: "shed", Start: task.born, End: s.eng.Now()})
	}
	s.res.Completed++
	s.res.Sheds++
	if task.slot >= s.cfg.WarmupSlots {
		s.res.DeadlineMisses++
	}
}

// complete records a finished task.
func (s *eventState) complete(task *simTask, at float64) {
	if tr := s.cfg.Tracer; tr != nil && task.trace != 0 {
		s.record(task, telemetry.Span{Span: tr.NewID(), Parent: task.root, Name: "exit", Exit: task.exit, Start: at, End: at})
		s.record(task, telemetry.Span{Span: task.root, Name: "task", Exit: task.exit, Start: task.born, End: at})
	}
	s.res.Completed++
	s.res.ExitCounts[task.exit-1]++
	if task.fellBack {
		s.res.Fallbacks++
	}
	tct := at - task.born
	s.slotTCT[task.slot] += tct
	s.slotDone[task.slot]++
	if task.slot >= s.cfg.WarmupSlots {
		s.res.TCT.Add(tct)
		s.res.PerDeviceTCT[task.dev].Add(tct)
		if s.cfg.DeadlineSec > 0 && tct > s.cfg.DeadlineSec {
			s.res.DeadlineMisses++
		}
	}
}
