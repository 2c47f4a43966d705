package rpc

import (
	"bytes"
	"io"
	"reflect"
)

// Test-only exports: external test packages (which may import the runtime
// protocol without creating an import cycle) drive the frame codec through
// these wrappers.

// TestEnvelope mirrors the unexported envelope for test construction.
type TestEnvelope struct {
	ID      uint64
	IsReply bool
	Err     string
	Code    string
	Meta    Meta
	Body    any
}

// MarshalFrame encodes env exactly as a client or server would write it:
// one length-prefixed versioned frame.
func MarshalFrame(env TestEnvelope) ([]byte, error) {
	var buf bytes.Buffer
	err := writeFrame(&buf, &envelope{
		ID: env.ID, IsReply: env.IsReply,
		Err: env.Err, Code: env.Code,
		Meta: env.Meta, Body: env.Body,
	})
	return buf.Bytes(), err
}

// UnmarshalFrame decodes one frame from data.
func UnmarshalFrame(data []byte) (TestEnvelope, error) {
	env, err := readFrame(bytes.NewReader(data))
	if err != nil {
		return TestEnvelope{}, err
	}
	return TestEnvelope{
		ID: env.ID, IsReply: env.IsReply,
		Err: env.Err, Code: env.Code,
		Meta: env.Meta, Body: env.Body,
	}, nil
}

// ReadFrameForTest decodes one frame from a reader, returning only the
// decode error (fuzzers probing corrupt input).
func ReadFrameForTest(r io.Reader) error {
	_, err := readFrame(r)
	return err
}

// BinaryEligible reports whether body would ride the binary codec.
func BinaryEligible(body any) bool {
	return body == nil || lookupCodec(body) != nil
}

// CodecTypes returns the registered codec table as wire ID → body type.
func CodecTypes() map[uint16]reflect.Type {
	types := map[uint16]reflect.Type{}
	for id, entry := range codecTablesSnapshot().byID {
		types[id] = entry.typ
	}
	return types
}
