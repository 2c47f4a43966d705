package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic and never return an envelope from malformed input without an error.
func FuzzReadFrame(f *testing.F) {
	// Seed with a valid frame.
	var buf bytes.Buffer
	if err := writeFrame(&buf, &envelope{ID: 1, Body: echoReq{Text: "hello"}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	corrupted := append([]byte(nil), buf.Bytes()...)
	if len(corrupted) > 8 {
		corrupted[8] ^= 0x55
	}
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readFrame(bytes.NewReader(data))
		if err == nil && env == nil {
			t.Fatal("nil envelope without error")
		}
	})
}

// FuzzFrameRoundTrip checks that every string survives a write/read cycle
// byte-identically inside a registered body.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("", uint64(0))
	f.Add("hello", uint64(42))
	f.Add(string(make([]byte, 1000)), uint64(1<<60))
	f.Fuzz(func(t *testing.T, body string, id uint64) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &envelope{ID: id, Body: echoReq{Text: body}}); err != nil {
			t.Skip() // oversized bodies are legitimately rejected
		}
		// Frame length prefix must match the payload.
		if got := binary.BigEndian.Uint32(buf.Bytes()[:4]); int(got) != buf.Len()-4 {
			t.Fatalf("length prefix %d, payload %d", got, buf.Len()-4)
		}
		env, err := readFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if env.ID != id {
			t.Fatalf("ID %d != %d", env.ID, id)
		}
		if got, ok := env.Body.(echoReq); !ok || got.Text != body {
			t.Fatalf("body %+v (%T), want text %q", env.Body, env.Body, body)
		}
	})
}
