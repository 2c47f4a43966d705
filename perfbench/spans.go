package main

import (
	"sort"
	"strings"
	"time"

	"leime/internal/rpc"
	"leime/internal/telemetry"
)

// The benchmark's own spans: a task root that starts at the task's
// scheduled arrival, so dispatch lag lands in the root's self time, and a
// child around each call the generator makes into the system. The tiers
// record their spans under the child through the trace context in
// rpc.Meta. All helpers are no-ops on a nil tracer.

// beginTask opens a root span for task id, back-dated to its due time.
func beginTask(tr *telemetry.Tracer, due time.Time, source string, id uint64) telemetry.Span {
	if tr == nil {
		return telemetry.Span{}
	}
	sid := tr.NewID()
	return telemetry.Span{Trace: sid, Span: sid, Name: "task", Device: source, Task: id, Start: tr.Now() - time.Since(due).Seconds()}
}

// endTask closes and records a root span opened by beginTask.
func endTask(tr *telemetry.Tracer, root telemetry.Span) {
	if tr == nil {
		return
	}
	root.End = tr.Now()
	tr.Record(root)
}

// callSpan opens the span around one call under root and returns it with
// the metadata that carries its context to the callee.
func callSpan(tr *telemetry.Tracer, root telemetry.Span, name string) (*telemetry.Active, rpc.Meta) {
	if tr == nil {
		return nil, rpc.Meta{}
	}
	a := tr.StartSpan(telemetry.SpanContext{Trace: root.Trace, Span: root.Span}, name).SetDevice(root.Device).SetTask(root.Task)
	c := a.Context()
	return a, rpc.Meta{TraceID: c.Trace, SpanID: c.Span}
}

// layers is the per-layer view of a traced run: every span's self time
// (its duration minus the part its children cover), summed by span name
// over the tasks kept, plus the distributions the per-layer metrics need.
type layers struct {
	tasks     int
	taskSec   float64            // sum of task root durations
	selfSec   map[string]float64 // sum of self time by span name
	selfTotal float64            // sum of self time over every span of the kept traces
	waits     []float64          // each queue span's duration
	overshoot []float64          // measured minus modelled service, per service span
	decisions []float64          // device.decision span durations
}

// spanGroup maps a span name to the layer it measures.
func spanGroup(name string) string {
	switch {
	case name == "task":
		return "residual"
	case name == "rpc.first_block" || name == "rpc.second_block" || name == "rpc.pipeline":
		return "uplink"
	case name == "rpc.cloud" || name == "rpc.stage":
		return "forward"
	case strings.HasSuffix(name, ".queue"):
		return "queue"
	case strings.Contains(name, ".block") || strings.HasPrefix(name, "edge.stage"):
		return "service"
	default:
		return "other"
	}
}

// perTaskMs is the mean self time per kept task of every span in a group.
func (l layers) perTaskMs(group string) float64 {
	if l.tasks == 0 {
		return 0
	}
	var s float64
	for name, sec := range l.selfSec {
		if spanGroup(name) == group {
			s += sec
		}
	}
	return s / float64(l.tasks) * 1e3
}

// rebuildErr is how far the summed self times miss the summed task spans,
// as a share of the latter. Zero means every child lies inside its parent
// and no siblings overlap, so the decomposition accounts for every task
// millisecond exactly once.
func (l layers) rebuildErr() float64 {
	if l.taskSec == 0 {
		return 0
	}
	d := l.selfTotal - l.taskSec
	if d < 0 {
		d = -d
	}
	return d / l.taskSec
}

// analyze decomposes every trace whose root is a kept task. modelled
// returns a service span's modelled duration in seconds, when known.
func analyze(spans []telemetry.Span, keep func(root telemetry.Span) bool, modelled func(telemetry.Span) (float64, bool)) layers {
	byTrace := make(map[uint64][]int)
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	l := layers{selfSec: make(map[string]float64)}
	for _, id := range ids {
		idx := byTrace[id]
		root := -1
		for _, i := range idx {
			if spans[i].Name == "task" && spans[i].Parent == 0 {
				root = i
			}
		}
		if root < 0 || !keep(spans[root]) {
			continue
		}
		l.tasks++
		l.taskSec += spans[root].End - spans[root].Start
		children := make(map[uint64][]int)
		for _, i := range idx {
			if spans[i].Parent != 0 {
				children[spans[i].Parent] = append(children[spans[i].Parent], i)
			}
		}
		for _, i := range idx {
			s := spans[i]
			self := (s.End - s.Start) - covered(spans, children[s.Span], s.Start, s.End)
			l.selfSec[s.Name] += self
			l.selfTotal += self
			switch spanGroup(s.Name) {
			case "queue":
				l.waits = append(l.waits, s.End-s.Start)
			case "service":
				if m, ok := modelled(s); ok {
					l.overshoot = append(l.overshoot, (s.End-s.Start)-m)
				}
			}
			if s.Name == "device.decision" {
				l.decisions = append(l.decisions, s.End-s.Start)
			}
		}
	}
	return l
}

// covered returns how much of [lo, hi] the union of the given spans covers.
func covered(spans []telemetry.Span, idx []int, lo, hi float64) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end float64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}
