// Command perfbench is the repository's benchmark: it runs one LEIME
// workload in-process over loopback TCP, checks every reply, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a traced
// run next to an untraced one) as the last line of standard output:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// It exits 0 when every output, conservation and validity check passed,
// 1 when one failed (after printing the result with "correct": false), and
// 2 when the run could not be set up. WORKLOADS.md documents the workloads
// and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"leime/internal/telemetry"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	// traced hands a shared tracer to the generator and to every tier.
	traced bool
}

// spanCapacity bounds the tracer's ring. A traced pass that records more
// spans than this drops the oldest and fails the run.
const spanCapacity = 1 << 19

// Validity guards: past these the run measures its own generator or a
// broken trace, not the system.
const (
	// maxLagP99 bounds how late the p99 dispatch may run behind schedule.
	maxLagP99 = 50 * time.Millisecond
	// maxRebuildErr bounds how far the summed span self times may miss the
	// summed task spans in a traced pass.
	maxRebuildErr = 0.02
)

// setupReps is how many times each run sets itself up; setup_s is the
// median, and the last set-up serves the measured phases.
const setupReps = 5

// run is what one pass of a workload measured.
type run struct {
	setupSec []float64 // one entry per set-up
	// The parts of the last set-up: leime.Build, the standalone solver
	// call, the model-clock prediction, and server start through warm-up.
	buildSec, solveSec, modelSec, startSec float64

	tct       []float64 // wall-clock latencies of the measured phase's completed tasks, seconds
	ctl       []float64 // control-call latencies, seconds
	lags      []float64 // dispatch lag behind schedule, seconds
	predicted float64   // model-clock prediction of mean latency, wall seconds
	tally     tally
	proc      procDelta // across the measured phases
	done      int       // completions across the measured phases (per-task denominators)
	allocSec  float64   // median offload.Allocate time on the 32-tenant set
	device    *deviceSummary
	failures  []string
	notes     []string

	tracer   *telemetry.Tracer
	keep     func(root telemetry.Span) bool
	modelled func(telemetry.Span) (float64, bool)
	// checkSpans, when set, checks the traced pass's spans of the kept
	// tasks for the workload's own invariants.
	checkSpans func(spans []telemetry.Span, keep func(root telemetry.Span) bool) error
}

// deviceSummary is what the testbed devices report about their own tasks.
type deviceSummary struct {
	offloadRatio, localSec, remoteSec float64
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*run, error){
	"testbed-paper":  runTestbed,
	"pipeline-chain": runPipeline,
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain runs one invocation and returns the process exit code.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: testbed-paper or pipeline-chain")
	seed := fs.Int64("seed", 1, "workload seed: arrivals, tenants and exit classes derive from it")
	seconds := fs.Float64("seconds", 40, "wall seconds the measured phases last")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced pass next to an untraced one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload testbed-paper|pipeline-chain, --seconds > 0, --trace 0|1\n")
		return 2
	}
	host, _ := json.Marshal(hostFingerprint())
	fmt.Fprintf(stdout, "host %s\n", host)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *trace)

	cfg := config{seed: *seed, seconds: *seconds}
	var (
		metrics map[string]metric
		passes  []*run
	)
	if *trace == 0 {
		r, err := drive(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 2
		}
		passes = []*run{r}
		metrics = endToEnd(r, stdout)
	} else {
		// The untraced pass holds an unused ring of the traced pass's size,
		// so both passes run with the same live heap and the garbage
		// collector paces them alike: the overhead then measures tracing,
		// not the ring's effect on GC frequency.
		ring := telemetry.NewTracer(spanCapacity)
		base, err := drive(cfg)
		goruntime.KeepAlive(ring)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s untraced pass: %v\n", *name, err)
			return 2
		}
		cfg.traced = true
		traced, err := drive(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced pass: %v\n", *name, err)
			return 2
		}
		passes = []*run{base, traced}
		metrics = perLayer(base, traced, stdout)
	}

	for _, n := range passes[0].notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	var t tally
	correct := true
	for _, r := range passes {
		t.add(r.tally)
		if p := percentile(sortedCopy(r.lags), 99); p > maxLagP99.Seconds() {
			r.fail("generator lag p99 %.3f ms exceeds %v", p*1e3, maxLagP99)
		}
		// Every workload runs well below its capacity, so no operation is
		// expected to fail; one that does also leaves the latency sample,
		// which must not make the run look faster.
		if n := r.tally.failed(); n > 0 {
			r.fail("%d of %d operations failed", n, r.tally.attempted+r.tally.controlAttempted)
		}
		for _, f := range r.failures {
			fmt.Fprintf(stdout, "FAIL %s\n", f)
			correct = false
		}
	}
	fmt.Fprintf(stdout, "tasks attempted %d completed %d rejected %d shed %d infeasible %d errors %d wrong %d; control calls %d wrong %d; fail_ratio %.6f\n",
		t.attempted, t.completed, t.rejected, t.shed, t.infeasible, t.errors, t.wrong, t.controlAttempted, t.controlWrong,
		float64(t.failed())/float64(max(1, t.attempted+t.controlAttempted)))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, t.attempted + t.controlAttempted, t.failed(), metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// latency summarises the measured phase: mean, p50 and p99 in seconds, the
// sample count, and how many samples lie beyond the p99.
func (r *run) latency() (meanS, p50S, p99S float64, n, beyond int) {
	s := sortedCopy(r.tct)
	n = len(s)
	p99S = percentile(s, 99)
	for _, v := range s {
		if v > p99S {
			beyond++
		}
	}
	return mean(s), percentile(s, 50), p99S, n, beyond
}

// endToEnd computes the untraced metrics a user of the system sees and
// prints each with its unit and sample count.
func endToEnd(r *run, w io.Writer) map[string]metric {
	meanS, p50S, p99S, n, beyond := r.latency()
	m := map[string]metric{
		"setup_s":     {median(r.setupSec), "s"},
		"tct_mean_ms": {meanS * 1e3, "ms"},
		"tct_p50_ms":  {p50S * 1e3, "ms"},
		"tct_p99_ms":  {p99S * 1e3, "ms"},
		"mem_peak_mb": {peakRSSMB(), "MB"},
	}
	fmt.Fprintf(w, "setup_s %.4f s (median of %d set-ups %v)\n", m["setup_s"].Value, len(r.setupSec), r.setupSec)
	fmt.Fprintf(w, "tct_mean_ms %.4f ms (n=%d)\n", m["tct_mean_ms"].Value, n)
	fmt.Fprintf(w, "tct_p50_ms %.4f ms (n=%d)\n", m["tct_p50_ms"].Value, n)
	fmt.Fprintf(w, "tct_p99_ms %.4f ms (n=%d, %d beyond)\n", m["tct_p99_ms"].Value, n, beyond)
	fmt.Fprintf(w, "%.1f us CPU per task, host steal %.1f%% of CPU ticks\n",
		float64(r.proc.cpu.Microseconds())/float64(max(1, r.done)), r.proc.stealShare*100)
	fmt.Fprintf(w, "mem_peak_mb %.2f MB\n", m["mem_peak_mb"].Value)
	lags := sortedCopy(r.lags)
	fmt.Fprintf(w, "generator lag p50 %.3f ms, p99 %.3f ms, max %.3f ms (n=%d)\n",
		percentile(lags, 50)*1e3, percentile(lags, 99)*1e3, percentile(lags, 100)*1e3, len(lags))
	return m
}

// perLayer computes the per-layer metrics: span-derived ones from the
// traced pass, process and wire counters from the untraced one (tracing
// would inflate them), and tracing overhead from the two side by side.
func perLayer(base, traced *run, w io.Writer) map[string]metric {
	spans := traced.tracer.Spans()
	dropped := traced.tracer.Dropped()
	l := analyze(spans, traced.keep, traced.modelled)
	if dropped > 0 {
		traced.fail("tracer dropped %d spans", dropped)
	}
	if l.tasks == 0 {
		traced.fail("traced pass recorded no task spans")
	}
	if traced.checkSpans != nil {
		if err := traced.checkSpans(spans, traced.keep); err != nil {
			traced.fail("%v", err)
		}
	}
	if e := l.rebuildErr(); e > maxRebuildErr {
		traced.fail("span self times rebuild task spans only within %.2f%% (limit %.0f%%)", e*100, maxRebuildErr*100)
	}
	waits := sortedCopy(l.waits)
	done := float64(max(1, base.done))
	baseMean, basep50, _, _, _ := base.latency()
	_, tracedp50, _, _, _ := traced.latency()
	dev := deviceSummary{}
	if base.device != nil {
		dev = *base.device
	}
	m := map[string]metric{
		"host.steal_pct":            {base.proc.stealShare * 100, "%"},
		"rpc.frames_per_task":       {float64(base.proc.frames-2*uint64(base.tally.controlAttempted)) / done, "frames"},
		"rpc.bytes_per_task":        {float64(base.proc.wireB) / done, "bytes"},
		"rpc.uplink_ms":             {l.perTaskMs("uplink"), "ms"},
		"rpc.forward_ms":            {l.perTaskMs("forward"), "ms"},
		"exec.wait_p50_ms":          {percentile(waits, 50) * 1e3, "ms"},
		"exec.wait_p99_ms":          {percentile(waits, 99) * 1e3, "ms"},
		"exec.service_ms":           {l.perTaskMs("service"), "ms"},
		"exec.overshoot_ms":         {mean(l.overshoot) * 1e3, "ms"},
		"task.residual_ms":          {l.perTaskMs("residual"), "ms"},
		"edge.rejected":             {float64(base.tally.rejected + traced.tally.rejected), "count"},
		"edge.shed":                 {float64(base.tally.shed + traced.tally.shed), "count"},
		"control.infeasible":        {float64(base.tally.infeasible + traced.tally.infeasible), "count"},
		"control.update_p99_ms":     {percentile(sortedCopy(base.ctl), 99) * 1e3, "ms"},
		"device.offload_ratio":      {dev.offloadRatio, "ratio"},
		"device.local_ms":           {dev.localSec * 1e3, "ms"},
		"device.remote_ms":          {dev.remoteSec * 1e3, "ms"},
		"device.decision_us":        {mean(l.decisions) * 1e6, "us"},
		"offload.allocate_us":       {base.allocSec * 1e6, "us"},
		"setup.build_s":             {base.buildSec, "s"},
		"setup.solve_ms":            {base.solveSec * 1e3, "ms"},
		"setup.model_s":             {base.modelSec, "s"},
		"setup.start_s":             {base.startSec, "s"},
		"model.gap_ms":              {(baseMean - base.predicted) * 1e3, "ms"},
		"telemetry.overhead_pct":    {pctChange(basep50, tracedp50), "%"},
		"telemetry.spans_dropped":   {float64(dropped), "count"},
		"telemetry.rebuild_err_pct": {l.rebuildErr() * 100, "%"},
		"proc.cpu_us_per_task":      {float64(base.proc.cpu.Microseconds()) / done, "us"},
		"proc.allocs_per_task":      {float64(base.proc.mallocs) / done, "count"},
		"proc.alloc_kb_per_task":    {float64(base.proc.bytes) / 1024 / done, "KB"},
		"proc.gc_cycles":            {float64(base.proc.gcs), "count"},
		"proc.gc_pause_ms":          {float64(base.proc.pauseNs) / 1e6, "ms"},
		"gen.lag_p99_ms":            {percentile(sortedCopy(base.lags), 99) * 1e3, "ms"},
	}
	fmt.Fprintf(w, "traced pass: %d tasks, %d spans, %d dropped; self time per task by span:\n", l.tasks, len(spans), dropped)
	var sum float64
	for _, n := range sortedKeys(l.selfSec) {
		ms := l.selfSec[n] / float64(max(1, l.tasks)) * 1e3
		sum += ms
		fmt.Fprintf(w, "  %-18s %10.4f ms\n", n, ms)
	}
	fmt.Fprintf(w, "  %-18s %10.4f ms (mean task span %.4f ms, rebuild error %.3f%%)\n", "sum", sum,
		l.taskSec/float64(max(1, l.tasks))*1e3, l.rebuildErr()*100)
	for _, n := range sortedKeys(m) {
		fmt.Fprintf(w, "%s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	return m
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pctChange is the change from a to b as a percentage of a.
func pctChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}
