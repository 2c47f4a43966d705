package rpc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"leime/internal/rpc"
	"leime/internal/runtime"
)

// frameDigests pins the SHA-256 of the frame MarshalFrame writes for each
// representative message (ID 11, representativeMeta), plus an error reply
// and an empty envelope. A changed digest means the bytes on the wire
// changed: a codec, the envelope or the frame header.
var frameDigests = []struct{ name, sha string }{
	{"runtime.RegisterReq", "6cd669b9a882d055a912ad332f7c95333cb8ed27eb20694d0e5a8df55a585531"},
	{"runtime.RegisterResp", "5284151f82a532a60c6cd9b185eab4130288c11103cf2672e56f548c9448b6bf"},
	{"runtime.FirstBlockReq", "a277fe662b147da832577fefac347e2ddfbec60efa77825fc7fb205ad2eb920b"},
	{"runtime.SecondBlockReq", "df69e9edbb9c60d88f8645c35e9816b3a064857501b6f1c8b98543e696f58375"},
	{"runtime.ThirdBlockReq", "69c57cebf6ec5079f60e6719ccc8391d69e1fcd277ffdd8efe3946ef38043c9d"},
	{"runtime.TaskResp", "f0e27b154b2895e8ee6bed72ae8ac1d5698c88d378e8d4d1dba15391ae5f5042"},
	{"runtime.UpdateReq", "3bb287c5a4f21470db4418039fc7a623de41db4c084c2b8e5df7f9bd68b31e22"},
	{"runtime.UnregisterReq", "68b927b891f9a61830130465b5ef8890f6ced3d7c2609c02ec7af1a70bafc9b9"},
	{"runtime.UnregisterResp", "ee6d527c6e3544fe4a7efc92cc1fba0c8c79337a0838a7646f681043f203a357"},
	{"runtime.EdgeStatsReq", "f57b555b598fd60c661635207f98ca54fdb643121c8b9bd961a64a73ec2a7d3e"},
	{"runtime.EdgeStatsResp", "9d9f26de2b0ff1c178cce1ef0c78f353c651e722d8d1ab4ace432c6013c8922f"},
	{"runtime.QueueStatReq", "06cd8a4b72dd5983fb6b5f5c6852778831c0148de3d2fdc67b361e1c5521458b"},
	{"runtime.QueueStatResp", "d44998e58bf0aca264f2a2eabf748878177b68d3b2824b5ff773c235b91c3a8d"},
	{"runtime.HeartbeatReq", "d599f4df98a0a66cb57279e0805b19d69ac8aaeb2f9e5f78794e4d029f62ad31"},
	{"runtime.HeartbeatResp", "83e346343275cc8725750f4e9415b7f86e86da82d9b98522023bd8b68cb417aa"},
	{"runtime.StealReq", "0c90790b0736e95fa78023d7b09f31e2130034d523867f1aef12629f36a5264a"},
	{"runtime.StageInstallReq", "13a53466c77f6b69139f576898125339698f0bee8de6d535ef99d6f352882d1b"},
	{"runtime.StageInstallResp", "6fcf11bdb9679cb91f1282399a2b15772a1c9605a941af62816ff82f512f557e"},
	{"runtime.ActivationReq", "faab4a05ee64235602274db9f49932789594edd1a4c70a25ff937ecd135a650f"},
	{"error reply", "acfa59d8c9a7debfe94e511463525d4c92efc06ddec0ad1a00a52b35aa2926eb"},
	{"empty", "2d04ad614264ac7343f24ce14756c2c530df93d7b80b0c2d1d9ca0a0636bbc86"},
}

func TestProtocolFrameGoldenDigests(t *testing.T) {
	runtime.RegisterMessages()
	envs := map[string]rpc.TestEnvelope{
		"error reply": {ID: 3, IsReply: true, Err: "edge: busy", Code: "overloaded"},
		"empty":       {ID: 0},
	}
	for _, body := range representativeMessages() {
		envs[fmt.Sprintf("%T", body)] = rpc.TestEnvelope{ID: 11, Meta: representativeMeta, Body: body}
	}
	if len(frameDigests) != len(envs) {
		t.Errorf("%d golden digests for %d frames", len(frameDigests), len(envs))
	}
	for _, want := range frameDigests {
		env, ok := envs[want.name]
		if !ok {
			t.Errorf("%s: no such frame", want.name)
			continue
		}
		frame, err := rpc.MarshalFrame(env)
		if err != nil {
			t.Fatalf("%s: marshal: %v", want.name, err)
		}
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:]); got != want.sha {
			t.Errorf("%s: frame digest %s, want %s", want.name, got, want.sha)
		}
	}
}
