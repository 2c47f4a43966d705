package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"leime/internal/telemetry"
)

// goldenEventDigests pins RunEvents bit for bit: one SHA-256 per
// configuration over every single-edge EventResult field and, when traced,
// the tracer's JSONL stream. A refactor of the lifecycle must leave them
// unchanged; a deliberate model change must say so by updating them.
var goldenEventDigests = map[string]string{
	"plain":    "80d50a1e6df684cc0848de675577627b64096420729078e24bd884a53ed65b3a",
	"traced":   "8f8f7a973ca8edb230c34840ebdbe6aa61fe7229bae6da0c7cb53d03e7679375",
	"policy":   "4d80f3adf7f9de3255770ca85f432c667888e2c8712fc1b01e75a1f446d093a1",
	"adaptive": "e693cda8409e82aa58c2c459eb6c9792850629565100c281eb15703da2cf746e",
	"linkAt":   "cf2f034818055e7522586224746820425ab63cbe7862ecf8fd27b9d36e628a4f",
}

// goldenEventConfigs are the pinned configurations: the plain model, a
// traced run, the admission/fallback/shedding policy (traced, so shed spans
// are pinned too), the adaptive batch window, and per-slot link replay.
func goldenEventConfigs() map[string]EventConfig {
	tracer := func() *telemetry.Tracer { return telemetry.NewTracerWithBase(1<<17, 7<<40) }
	traced := baseEventConfig(3, 4)
	traced.Slots, traced.WarmupSlots = 60, 5
	traced.Tracer = tracer()
	policy := policySimConfig(Policy{MaxBacklogSec: 1, DeadlineAdmission: true}, 1.5)
	policy.Tracer = tracer()
	linked := baseEventConfig(2, 6)
	for i := range linked.Devices {
		i := i
		linked.Devices[i].Link = func(slot int) (float64, float64) {
			return 2e6 + float64((slot*(i+3))%7)*2e6, 0.01 + float64(slot%5)*0.005
		}
	}
	return map[string]EventConfig{
		"plain":    baseEventConfig(3, 6),
		"traced":   traced,
		"policy":   policy,
		"adaptive": policySimConfig(Policy{AdaptiveBatch: true, TargetP99Sec: 1}, 0),
		"linkAt":   linked,
	}
}

// digestEventRun hashes every single-edge EventResult field in a fixed
// order, followed by the trace stream. fmt renders summaries with their
// samples in insertion order, floats in shortest round-trip form and maps
// in sorted key order, so the text is exact and deterministic.
func digestEventRun(t *testing.T, res *EventResult, tr *telemetry.Tracer) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "tct:%+v\nslot:%v\ndev:%+v\nratio:%v\n", res.TCT, res.SlotTCT, res.PerDeviceTCT, res.Ratio)
	fmt.Fprintf(h, "exits:%v gen:%d done:%d miss:%d fb:%d shed:%d\nutil:%v\n", res.ExitCounts,
		res.Generated, res.Completed, res.DeadlineMisses, res.Fallbacks, res.Sheds, res.Utilization)
	if tr != nil {
		if tr.Dropped() != 0 {
			t.Fatalf("tracer dropped %d spans; raise capacity", tr.Dropped())
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		if buf.Len() == 0 {
			t.Fatal("traced run produced no spans")
		}
		h.Write(buf.Bytes())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunEventsGoldenDigests is the byte-identity pin of the event
// simulator's single-edge lifecycle.
func TestRunEventsGoldenDigests(t *testing.T) {
	for name, cfg := range goldenEventConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			res, err := RunEvents(cfg)
			if err != nil {
				t.Fatalf("RunEvents: %v", err)
			}
			if name == "policy" && (res.Fallbacks == 0 || res.Sheds == 0) {
				t.Fatalf("policy config exercises too little: %d fallbacks, %d sheds", res.Fallbacks, res.Sheds)
			}
			if got, want := digestEventRun(t, res, cfg.Tracer), goldenEventDigests[name]; got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
}
