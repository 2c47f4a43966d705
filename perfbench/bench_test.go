package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"leime/internal/rpc"
	"leime/internal/runtime"
	"leime/internal/telemetry"
)

// spec is the part of BENCHMARK.json the self-test checks output against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// result parses the last line of a run's output, rejecting any key beyond
// the four the result line may carry.
func result(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]metric
	}
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if r.Correct == nil || r.Attempted == nil || r.Failed == nil || r.Metrics == nil {
		t.Fatalf("last line %q lacks a key", lines[len(lines)-1])
	}
	return *r.Correct, *r.Attempted, *r.Failed, r.Metrics
}

// TestOutputMatchesSpec runs every listed workload briefly in both modes and
// checks that the result parses and names exactly the metrics, with the
// units, that BENCHMARK.json lists for that mode.
func TestOutputMatchesSpec(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": s.EndToEnd, "1": s.PerLayer} {
			var out, errOut bytes.Buffer
			code := benchMain([]string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s%s", w.Name, trace, code, out.String(), errOut.String())
			}
			correct, attempted, failed, metrics := result(t, out.String())
			if !correct || attempted < 1 || failed != 0 {
				t.Errorf("%s --trace %s: correct %v, attempted %d, failed %d", w.Name, trace, correct, attempted, failed)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// stubEdge serves the control plane like an edge does and answers every
// task with an exit one deeper than asked (wrapping 3 to 1): a reply no
// healthy edge without a degradation policy may give.
func stubEdge(t *testing.T) *rpc.Server {
	t.Helper()
	runtime.RegisterMessages()
	wrong := func(id uint64, exit int) runtime.TaskResp {
		return runtime.TaskResp{TaskID: id, ExitStage: exit%3 + 1}
	}
	srv, err := rpc.ServeMeta("127.0.0.1:0", func(_ context.Context, _ rpc.Meta, body any) (any, error) {
		switch req := body.(type) {
		case runtime.RegisterReq, runtime.UpdateReq:
			return runtime.RegisterResp{ShareFLOPS: 1e9}, nil
		case runtime.QueueStatReq:
			return runtime.QueueStatResp{}, nil
		case runtime.FirstBlockReq:
			return wrong(req.TaskID, req.ExitStage), nil
		case runtime.SecondBlockReq:
			return wrong(req.TaskID, req.ExitStage), nil
		case runtime.ActivationReq:
			return wrong(req.TaskID, req.ExitStage), nil
		}
		return nil, fmt.Errorf("stub edge: unexpected %T", body)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// runStub runs a workload function under benchMain and returns its exit
// code, result line and output.
func runStub(t *testing.T, name string, drive func(config) (*run, error), trace string) (int, bool, int, int, string) {
	t.Helper()
	workloads[name] = drive
	defer delete(workloads, name)
	var out, errOut bytes.Buffer
	code := benchMain([]string{"--workload", name, "--seconds", "3", "--trace", trace}, &out, &errOut)
	if code == 2 {
		t.Fatalf("%s: set-up failed: %s", name, errOut.String())
	}
	correct, attempted, failed, _ := result(t, out.String())
	return code, correct, attempted, failed, out.String()
}

// TestPipelineWrongExitFailsTheRun drives pipeline-chain's measured phase
// against the stub edge as the chain's entry stage: every reply must count
// as wrong, and the run must print "correct": false and exit 1.
func TestPipelineWrongExitFailsTheRun(t *testing.T) {
	srv := stubEdge(t)
	code, correct, attempted, failed, out := runStub(t, "stub-pipeline", func(cfg config) (*run, error) {
		pc, err := runtime.DialPipeline(runtime.PipelineClientConfig{Addr: srv.Addr(), PipelineID: pipeID, DeviceID: pipeID, InputBytes: 16})
		if err != nil {
			return nil, err
		}
		defer pc.Close()
		sigma := [3]float64{0.4, 0.7, 1}
		env := &pipeEnv{pc: pc, sched: poissonSchedule(rand.New(rand.NewSource(cfg.seed)), 200, 200*time.Millisecond, 1, sigma)}
		r := &run{}
		var tasks tally
		r.tct, r.lags, tasks = pipeOpen(env)
		r.checkPhase(env.sched, tasks, tally{})
		return r, nil
	}, "0")
	if code != 1 || correct || attempted == 0 || failed != attempted {
		t.Fatalf("exit %d, correct %v, attempted %d, failed %d; want exit 1, false, every attempt failed\n%s", code, correct, attempted, failed, out)
	}
}

// TestTestbedWrongExitFailsTheRun runs testbed-paper's devices against the
// stub edge, traced and untraced. The devices take whatever exit the edge
// names, so only the benchmark's own checks can notice: the exit split
// against σ in both passes, and the exit against the deepest block run in
// the traced one.
func TestTestbedWrongExitFailsTheRun(t *testing.T) {
	srv := stubEdge(t)
	sys, err := buildTestbed()
	if err != nil {
		t.Fatal(err)
	}
	code, correct, _, _, out := runStub(t, "stub-testbed", func(cfg config) (*run, error) {
		counts, err := testbedCounts(cfg)
		if err != nil {
			return nil, err
		}
		r := &run{modelled: func(telemetry.Span) (float64, bool) { return 0, false }}
		if cfg.traced {
			r.tracer = telemetry.NewTracer(spanCapacity)
		}
		procs, stats, err := runDevices(cfg, sys, srv.Addr(), counts, true, r.tracer)
		if err != nil {
			return nil, err
		}
		testbedOutcome(r, sys.Params(), stats, procs, counts)
		return r, nil
	}, "1")
	if code != 1 || correct {
		t.Fatalf("exit %d, correct %v; want exit 1, false\n%s", code, correct, out)
	}
	if got := strings.Count(out, "standard deviations off"); got < 2 {
		t.Errorf("the σ split check tripped %d times, want at least once per pass\n%s", got, out)
	}
	if !strings.Contains(out, "answered at another exit than the deepest block run") {
		t.Errorf("the traced exit check did not trip\n%s", out)
	}
}
