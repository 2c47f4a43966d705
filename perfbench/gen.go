package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"leime/internal/rpc"
	"leime/internal/runtime"
)

// arrival is one scheduled task of an open-loop phase.
type arrival struct {
	at     time.Duration // offset from the phase start
	tenant int
	class  int // predetermined exit class, 1..3
}

// poissonSchedule draws Poisson arrivals at rate tasks per wall second over
// horizon, each with a uniformly chosen tenant and an exit class sampled
// from the cumulative exit rates sigma.
func poissonSchedule(rng *rand.Rand, rate float64, horizon time.Duration, tenants int, sigma [3]float64) []arrival {
	var out []arrival
	var at float64
	for {
		at += rng.ExpFloat64() / rate
		if at >= horizon.Seconds() {
			return out
		}
		out = append(out, arrival{
			at:     time.Duration(at * float64(time.Second)),
			tenant: rng.Intn(tenants),
			class:  sampleClass(rng, sigma),
		})
	}
}

// sampleClass draws an exit class from cumulative exit rates.
func sampleClass(rng *rand.Rand, sigma [3]float64) int {
	r := rng.Float64()
	switch {
	case r < sigma[0]:
		return 1
	case r < sigma[1]:
		return 2
	default:
		return 3
	}
}

// tally counts the terminal state of every operation a run attempted; each
// attempted operation lands in exactly one field besides attempted.
type tally struct {
	attempted, completed           int
	rejected, shed, infeasible     int
	errors, wrong                  int
	controlAttempted, controlWrong int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.rejected += o.rejected
	t.shed += o.shed
	t.infeasible += o.infeasible
	t.errors += o.errors
	t.wrong += o.wrong
	t.controlAttempted += o.controlAttempted
	t.controlWrong += o.controlWrong
}

// failed counts the attempted operations that did not complete correctly.
func (t tally) failed() int {
	return t.rejected + t.shed + t.infeasible + t.errors + t.wrong + t.controlWrong
}

// balanced reports whether every attempted task reached exactly one
// terminal state.
func (t tally) balanced() bool {
	return t.attempted == t.completed+t.rejected+t.shed+t.infeasible+t.errors+t.wrong
}

// checkPhase adds an open-loop phase and a control stream to r's tally,
// and fails r unless every scheduled task was sent, the phase balances, and
// every reply answered the request it was sent for.
func (r *run) checkPhase(sched []arrival, open, ctl tally) {
	if open.attempted != len(sched) {
		r.fail("open loop sent %d of %d scheduled tasks", open.attempted, len(sched))
	}
	if !open.balanced() {
		r.fail("phase does not balance: %+v", open)
	}
	r.tally.add(open)
	r.tally.add(ctl)
	if r.tally.wrong > 0 || r.tally.controlWrong > 0 {
		r.fail("%d wrong task replies and %d wrong control replies", r.tally.wrong, r.tally.controlWrong)
	}
}

// outcome is the terminal state of one task.
type outcome uint8

const (
	outOK outcome = iota
	outWrong
	outRejected
	outShed
	outInfeasible
	outError
)

// record adds one task outcome to the tally.
func (t *tally) record(o outcome) {
	t.attempted++
	switch o {
	case outOK:
		t.completed++
	case outWrong:
		t.wrong++
	case outRejected:
		t.rejected++
	case outShed:
		t.shed++
	case outInfeasible:
		t.infeasible++
	default:
		t.errors++
	}
}

// classify maps a task call's result to its terminal state. A reply whose
// task ID or exit differs from the request is wrong: no degradation policy
// is configured, so a shallower exit is a fault.
func classify(got any, err error, id uint64, class int) outcome {
	switch {
	case err == nil:
		if checkReply(got, id, class) != nil {
			return outWrong
		}
		return outOK
	case errors.Is(err, runtime.ErrDeadlineInfeasible):
		// Also unwraps to ErrOverloaded, so it is tested first.
		return outInfeasible
	case errors.Is(err, runtime.ErrBusy) || errors.Is(err, runtime.ErrOverloaded):
		return outRejected
	case errors.Is(err, rpc.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return outShed
	default:
		return outError
	}
}

// checkReply verifies that a reply answers the request it was sent for.
func checkReply(got any, id uint64, class int) error {
	resp, ok := got.(runtime.TaskResp)
	if !ok {
		return fmt.Errorf("reply %T is not a TaskResp", got)
	}
	if resp.TaskID != id || resp.ExitStage != class {
		return fmt.Errorf("task %d exit %d answered as task %d exit %d", id, class, resp.TaskID, resp.ExitStage)
	}
	return nil
}

// openLoop dispatches each scheduled task at start plus its offset,
// regardless of how fast earlier ones finish, and waits for all of them.
// fire runs on its own goroutine and receives the task's due time, from
// which its latency is measured. It returns how late each dispatch ran
// behind its schedule, in seconds.
func openLoop(start time.Time, sched []arrival, fire func(i int, due time.Time)) []float64 {
	lags := make([]float64, len(sched))
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due).Seconds()
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(i, due)
		}()
	}
	wg.Wait()
	return lags
}

// sortedCopy returns the values in ascending order.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile of ascending values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// procSnap is a reading of the process's own counters: CPU time, heap
// allocation, garbage collection and the rpc layer's frame counters.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
	wire    rpc.CodecStats
	// steal and jiffies are the host's stolen and total CPU ticks, when
	// the kernel reports them.
	steal, jiffies uint64
}

func snapProc() procSnap {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	steal, jiffies := hostTicks()
	return procSnap{cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs, wire: rpc.WireStats(), steal: steal, jiffies: jiffies}
}

// hostTicks reads the host's stolen and total CPU ticks from /proc/stat;
// both are zero where the file is unreadable. On a shared virtual machine
// stolen time slows wall-clock results without any change to the program,
// so each run reports it beside them.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procDelta is the change in the process counters across a measured phase.
type procDelta struct {
	cpu           time.Duration
	mallocs       uint64
	bytes         uint64
	gcs           uint32
	pauseNs       uint64
	frames, wireB uint64
	stealShare    float64 // share of the host's CPU ticks stolen
}

func (a procSnap) until(b procSnap) procDelta {
	return procDelta{
		cpu:        b.cpu - a.cpu,
		mallocs:    b.mallocs - a.mallocs,
		bytes:      b.bytes - a.bytes,
		gcs:        b.gcs - a.gcs,
		pauseNs:    b.pauseNs - a.pauseNs,
		frames:     (b.wire.BinaryEncoded + b.wire.GobEncoded) - (a.wire.BinaryEncoded + a.wire.GobEncoded),
		wireB:      (b.wire.BinaryBytes + b.wire.GobBytes) - (a.wire.BinaryBytes + a.wire.GobBytes),
		stealShare: float64(b.steal-a.steal) / float64(max(1, b.jiffies-a.jiffies)),
	}
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports kilobytes
}

// hostFingerprint names what absolute numbers depend on: they carry across
// runs on one host, not across hosts.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
	}
}

// generatorConns is how many connections a generator may open: one per
// processor, so the generator never needs more threads than the host has.
func generatorConns() int { return max(1, goruntime.NumCPU()) }
