package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

type panicReq struct{ Msg string }

func startHardenedServer(t *testing.T) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", func(_ context.Context, body any) (any, error) {
		switch req := body.(type) {
		case panicReq:
			panic(req.Msg)
		case echoReq:
			return echoResp{Text: req.Text, N: req.N}, nil
		default:
			return nil, nil
		}
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestHandlerPanicBecomesError(t *testing.T) {
	s := startHardenedServer(t)
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), panicReq{Msg: "boom"}); err == nil {
		t.Fatal("panic not surfaced as error")
	}
	// The server (and the same connection) must still work afterwards.
	got, err := c.Call(context.Background(), echoReq{Text: "still alive", N: 1})
	if err != nil {
		t.Fatalf("call after panic: %v", err)
	}
	if got.(echoResp).Text != "still alive" {
		t.Errorf("wrong reply %+v", got)
	}
}

// TestUnencodableReplyFailsFast has the handler return a reply over
// MaxMessageBytes: the server must answer with ErrUnencodable at once
// instead of dropping the reply, and the connection must keep serving.
func TestUnencodableReplyFailsFast(t *testing.T) {
	leakCheck(t)
	huge := echoResp{Text: strings.Repeat("x", MaxMessageBytes)}
	s, err := Serve("127.0.0.1:0", func(_ context.Context, body any) (any, error) {
		if req := body.(echoReq); req.N > 0 {
			return echoResp{Text: req.Text, N: 2 * req.N}, nil
		}
		return huge, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, echoReq{Text: "oversized reply"})
	elapsed := time.Since(start)
	var remote *RemoteError
	if !errors.Is(err, ErrUnencodable) || !errors.As(err, &remote) {
		t.Fatalf("oversized reply = %v, want a remote ErrUnencodable", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("oversized reply took %v to fail, want under 100ms", elapsed)
	}
	got, err := c.Call(ctx, echoReq{Text: "after", N: 2})
	if err != nil {
		t.Fatalf("call after unencodable reply: %v", err)
	}
	if got.(echoResp).N != 4 {
		t.Errorf("wrong reply %+v", got)
	}
}

func TestCorruptFrameClosesOnlyThatConnection(t *testing.T) {
	s := startHardenedServer(t)

	// A raw connection sends garbage bytes with a plausible length prefix.
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer raw.Close()
	frame := make([]byte, 4+16)
	binary.BigEndian.PutUint32(frame[:4], 16)
	for i := 4; i < len(frame); i++ {
		frame[i] = 0xff
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	// The server should drop the corrupted connection: a read eventually
	// returns EOF/reset rather than hanging.
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Error("server kept a corrupted connection alive with data")
	}

	// A healthy client is unaffected.
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), echoReq{Text: "ok"}); err != nil {
		t.Errorf("healthy client failed after another connection corrupted: %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	s := startHardenedServer(t)
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer raw.Close()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxMessageBytes+1)
	if _, err := raw.Write(lenBuf[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Error("server accepted an oversized frame announcement")
	}
}

func TestClientSurvivesServerRestart(t *testing.T) {
	s := startHardenedServer(t)
	addr := s.Addr()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), echoReq{Text: "one"}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	_ = s.Close()
	// Calls on the dead connection fail fast rather than hanging.
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), echoReq{Text: "two"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("call to closed server succeeded")
		}
	case <-time.After(3 * time.Second):
		t.Error("call to closed server hung")
	}
	// A fresh server on a fresh port accepts a fresh client.
	s2, err := Serve("127.0.0.1:0", func(_ context.Context, body any) (any, error) { return body, nil })
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	c2, err := Dial(s2.Addr(), nil)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Call(context.Background(), echoReq{Text: "three"}); err != nil {
		t.Errorf("call after restart: %v", err)
	}
}
