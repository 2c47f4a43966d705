// Differential tests of the wire codec, in an external test package so
// it can import the runtime protocol (package runtime imports rpc, so
// in-package rpc tests cannot).
package rpc_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"leime/internal/offload"
	"leime/internal/rpc"
	"leime/internal/runtime"
)

// protocolMessages builds one instance of every protocol.go message from
// fuzzable primitives. Empty payloads normalize to nil: the codec decodes
// a zero-length slice as nil, so only the nil form round-trips exactly.
func protocolMessages(deviceID string, taskID uint64, payload []byte, stage int, load, mean, share float64, tenants int) []any {
	if len(payload) == 0 {
		payload = nil
	}
	model := offload.ModelParams{
		Mu:    [3]float64{load, mean, share},
		D:     [3]float64{share, load, mean},
		Sigma: [3]float64{mean, share, 1},
	}
	shares := map[string]float64{deviceID: share, deviceID + "-peer": mean}
	return []any{
		runtime.RegisterReq{DeviceID: deviceID, FLOPS: load, ArrivalMean: mean, Model: model},
		runtime.RegisterResp{ShareFLOPS: share},
		runtime.FirstBlockReq{DeviceID: deviceID, TaskID: taskID, Payload: payload, ExitStage: stage},
		runtime.SecondBlockReq{DeviceID: deviceID, TaskID: taskID, Payload: payload, ExitStage: stage},
		runtime.ThirdBlockReq{TaskID: taskID, Payload: payload, FLOPs: load},
		runtime.TaskResp{TaskID: taskID, ExitStage: stage},
		runtime.UpdateReq{DeviceID: deviceID, ArrivalMean: mean},
		runtime.UnregisterReq{DeviceID: deviceID},
		runtime.UnregisterResp{RemainingTenants: tenants},
		runtime.EdgeStatsReq{},
		runtime.EdgeStatsResp{Tenants: tenants, PendingFirstBlock: stage, Shares: shares},
		runtime.QueueStatReq{DeviceID: deviceID},
		runtime.QueueStatResp{PendingFirstBlock: tenants},
		runtime.HeartbeatReq{DeviceID: deviceID},
		runtime.HeartbeatResp{Ready: stage > 1, FLOPS: load, Tenants: tenants,
			BacklogSec: mean, Saturated: tenants > 2, PendingFirstBlock: stage, ShareFLOPS: share},
		runtime.StealReq{DeviceID: deviceID, TaskID: taskID, Payload: payload, ExitStage: stage, Hop: 1, Model: model},
		runtime.StageInstallReq{PipelineID: deviceID + "-chain", Stage: tenants, FLOPs: [3]float64{load, mean, share},
			Hosted: [3]bool{stage > 0, stage > 1, tenants > 2}, Deepest: stage, OutBytes: mean, NextAddr: deviceID + "-next"},
		runtime.StageInstallResp{Stage: tenants},
		runtime.ActivationReq{PipelineID: deviceID + "-chain", DeviceID: deviceID, TaskID: taskID,
			Stage: tenants, ExitStage: stage, Payload: payload},
	}
}

// representativeMeta and representativeMessages are the fixed instances
// the oracle and the golden frame digests run on: every exported field of
// every message is non-zero in them (TestDifferentialProtocolMessages).
var representativeMeta = rpc.Meta{TraceID: 7, SpanID: 9, Deadline: 1_700_000_000_000_000_000}

func representativeMessages() []any {
	return protocolMessages("dev-1", 42, []byte{1, 2, 3, 255}, 2, 8e13, 3.5, 0.25, 4)
}

// roundTrip is the wire oracle. The frame must decode back to exactly env
// (exact=false skips this for NaN floats, which never compare equal), and
// the decoded envelope must re-encode to the same bytes, which holds for
// NaN payloads too.
func roundTrip(t *testing.T, env rpc.TestEnvelope, exact bool) {
	t.Helper()
	if env.Body != nil && !rpc.BinaryEligible(env.Body) {
		t.Fatalf("%T has no registered binary codec", env.Body)
	}
	frame, err := rpc.MarshalFrame(env)
	if err != nil {
		t.Fatalf("marshal %T: %v", env.Body, err)
	}
	got, err := rpc.UnmarshalFrame(frame)
	if err != nil {
		t.Fatalf("unmarshal %T: %v", env.Body, err)
	}
	if exact && !reflect.DeepEqual(got, env) {
		t.Errorf("round trip diverged:\n got %#v\nwant %#v", got, env)
	}
	again, err := rpc.MarshalFrame(got)
	if err != nil {
		t.Fatalf("re-marshal %T: %v", env.Body, err)
	}
	if !bytes.Equal(frame, again) {
		t.Errorf("%T re-encodes differently:\nfirst  %x\nsecond %x", env.Body, frame, again)
	}
}

// requireNonZero fails for every exported field of v, recursively through
// structs, arrays, slices and map values, that holds its zero value or is
// empty: a field a codec drops must not hide behind a zero.
func requireNonZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				requireNonZero(t, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Array, reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s is empty", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireNonZero(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			t.Errorf("%s is empty", path)
		}
		iter := v.MapRange()
		for iter.Next() {
			requireNonZero(t, fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value())
		}
	default:
		if v.IsZero() {
			t.Errorf("%s is zero", path)
		}
	}
}

// TestDifferentialProtocolMessages round-trips every protocol message with
// representative values through the oracle. The representatives cover
// every registered runtime codec ID and leave no exported field zero.
func TestDifferentialProtocolMessages(t *testing.T) {
	runtime.RegisterMessages()
	msgs := representativeMessages()
	covered := map[reflect.Type]bool{}
	for _, body := range msgs {
		covered[reflect.TypeOf(body)] = true
	}
	for id, typ := range rpc.CodecTypes() {
		if typ.PkgPath() == "leime/internal/runtime" && !covered[typ] {
			t.Errorf("codec ID %d (%v) has no representative in protocolMessages", id, typ)
		}
	}
	requireNonZero(t, "Meta", reflect.ValueOf(representativeMeta))
	for _, body := range msgs {
		requireNonZero(t, fmt.Sprintf("%T", body), reflect.ValueOf(body))
		roundTrip(t, rpc.TestEnvelope{ID: 11, Meta: representativeMeta, Body: body}, true)
	}
	// Error replies and empty envelopes must survive the codec too.
	roundTrip(t, rpc.TestEnvelope{ID: 3, IsReply: true, Err: "edge: busy", Code: "overloaded"}, true)
	roundTrip(t, rpc.TestEnvelope{ID: 0}, true)
}

// TestProtocolMessagesRideBinaryPath pins the frame header: registered
// protocol messages carry codec tag 1, an unregistered body fails with
// ErrUnencodable, and a tag-0 frame is rejected as an unknown codec.
func TestProtocolMessagesRideBinaryPath(t *testing.T) {
	runtime.RegisterMessages()
	for _, body := range protocolMessages("dev", 1, []byte{9}, 1, 1, 1, 1, 1) {
		frame, err := rpc.MarshalFrame(rpc.TestEnvelope{ID: 1, Body: body})
		if err != nil {
			t.Fatalf("marshal %T: %v", body, err)
		}
		if frame[5] != 1 {
			t.Errorf("%T took codec tag %d, want binary (1)", body, frame[5])
		}
	}
	type unregistered struct{ X int }
	if _, err := rpc.MarshalFrame(rpc.TestEnvelope{ID: 1, Body: unregistered{X: 5}}); !errors.Is(err, rpc.ErrUnencodable) {
		t.Errorf("marshal unregistered = %v, want ErrUnencodable", err)
	}
	frame, err := rpc.MarshalFrame(rpc.TestEnvelope{ID: 1, Body: runtime.TaskResp{TaskID: 1, ExitStage: 1}})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	frame[5] = 0
	if _, err := rpc.UnmarshalFrame(frame); err == nil || !strings.Contains(err.Error(), "unknown codec tag 0") {
		t.Errorf("tag-0 frame = %v, want unknown codec tag", err)
	}
}

// FuzzDifferentialCodec fuzzes the full protocol set through the oracle.
func FuzzDifferentialCodec(f *testing.F) {
	runtime.RegisterMessages()
	f.Add("dev-1", uint64(42), []byte{1, 2, 3}, 2, 8e13, 3.5, 0.25, 4, uint64(7), uint64(9), int64(12345))
	f.Add("", uint64(0), []byte(nil), 0, 0.0, 0.0, 0.0, 0, uint64(0), uint64(0), int64(0))
	f.Add("edge-дев", uint64(math.MaxUint64), bytes.Repeat([]byte{0xff}, 64), -1, -1.5, math.Inf(1), math.SmallestNonzeroFloat64, math.MinInt, uint64(1), uint64(math.MaxUint64), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, deviceID string, taskID uint64, payload []byte, stage int, load, mean, share float64, tenants int, traceID, spanID uint64, deadline int64) {
		exact := !math.IsNaN(load) && !math.IsNaN(mean) && !math.IsNaN(share)
		meta := rpc.Meta{TraceID: traceID, SpanID: spanID, Deadline: deadline}
		for _, body := range protocolMessages(deviceID, taskID, payload, stage, load, mean, share, tenants) {
			roundTrip(t, rpc.TestEnvelope{ID: taskID, Meta: meta, Body: body}, exact)
		}
	})
}

// FuzzCorruptBinaryFrame seeds the mutator with valid binary frames of
// every protocol message and requires that arbitrary mutations decode
// cleanly or error — never panic.
func FuzzCorruptBinaryFrame(f *testing.F) {
	runtime.RegisterMessages()
	for _, body := range representativeMessages() {
		frame, err := rpc.MarshalFrame(rpc.TestEnvelope{ID: 11, Meta: rpc.Meta{TraceID: 1, SpanID: 2, Deadline: 3}, Body: body})
		if err != nil {
			f.Fatalf("marshal %T: %v", body, err)
		}
		f.Add(frame)
		// A truncated variant probes every partial-field path.
		f.Add(frame[:len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := rpc.UnmarshalFrame(data)
		if err != nil {
			return
		}
		// A frame that decodes must re-encode losslessly (empty payloads
		// normalize to nil on the next decode, so compare decoded forms).
		frame2, err := rpc.MarshalFrame(env)
		if err != nil {
			t.Fatalf("re-marshal of decoded frame failed: %v", err)
		}
		env2, err := rpc.UnmarshalFrame(frame2)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		// Compare re-encoded bytes, not decoded values: encoding is
		// deterministic and byte equality tolerates NaN payloads that
		// DeepEqual cannot.
		frame3, err := rpc.MarshalFrame(env2)
		if err != nil {
			t.Fatalf("re-marshal of second decode failed: %v", err)
		}
		if !bytes.Equal(frame2, frame3) {
			t.Errorf("decode/encode/decode not stable:\nfirst  %x\nsecond %x", frame2, frame3)
		}
	})
}
