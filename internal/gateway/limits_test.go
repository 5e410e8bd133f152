package gateway_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"postlob/internal/adt"
	"postlob/internal/compress"
	"postlob/internal/gateway"
)

// rawHello opens a bare TCP connection — no client-side clamping — and
// sends a Hello proposing h, so these tests exercise exactly what a
// hostile peer can send. It returns the connection and the server's first
// frame.
func rawHello(t *testing.T, addr string, h gateway.Hello) (net.Conn, *gateway.Frame) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	p, err := gateway.EncodeMsg(&h)
	if err != nil {
		t.Fatal(err)
	}
	if err := gateway.WriteFrame(conn, &gateway.Frame{Kind: gateway.KindHello, Payload: p}); err != nil {
		t.Fatal(err)
	}
	f, err := gateway.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no answer to hello: %v", err)
	}
	return conn, f
}

// negotiated decodes the server's Hello answer.
func negotiated(t *testing.T, f *gateway.Frame) gateway.Hello {
	t.Helper()
	if f.Kind != gateway.KindHello {
		t.Fatalf("answer to hello is a %v frame (%q)", f.Kind, f.Payload)
	}
	var h gateway.Hello
	if err := gateway.DecodeMsg(f.Payload, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestStreamNegotiationClamps pins the chunk and window bounds: the
// server's own configuration is capped at MaxChunk/MaxWindow, a peer may
// only negotiate down from it, never below the 4 KiB chunk floor or a
// one-frame window, and a wrong protocol version is refused.
func TestStreamNegotiationClamps(t *testing.T) {
	// An over-large server configuration is capped at construction.
	addr, _, _ := startGateway(t, gateway.Options{Chunk: 1 << 30, Window: 1 << 20})
	for _, tc := range []struct {
		name        string
		propose     gateway.Hello
		chunk, wind int
	}{
		{"huge proposal", gateway.Hello{Proto: gateway.Proto, Chunk: math.MaxInt, Window: math.MaxInt}, gateway.MaxChunk, gateway.MaxWindow},
		{"no proposal", gateway.Hello{Proto: gateway.Proto}, gateway.MaxChunk, gateway.MaxWindow},
		{"negative proposal", gateway.Hello{Proto: gateway.Proto, Chunk: -1, Window: -1}, gateway.MaxChunk, gateway.MaxWindow},
		{"smaller proposal", gateway.Hello{Proto: gateway.Proto, Chunk: 64 << 10, Window: 3}, 64 << 10, 3},
		{"under the floor", gateway.Hello{Proto: gateway.Proto, Chunk: 1, Window: 1}, 4096, 1},
	} {
		_, f := rawHello(t, addr, tc.propose)
		h := negotiated(t, f)
		if h.Proto != gateway.Proto || h.Chunk != tc.chunk || h.Window != tc.wind {
			t.Errorf("%s: negotiated %+v, want chunk %d window %d", tc.name, h, tc.chunk, tc.wind)
		}
	}

	// Defaults apply when the server configures nothing.
	daddr, _, _ := startGateway(t, gateway.Options{})
	_, f := rawHello(t, daddr, gateway.Hello{Proto: gateway.Proto, Chunk: math.MaxInt, Window: math.MaxInt})
	if h := negotiated(t, f); h.Chunk != gateway.DefaultChunk || h.Window != gateway.DefaultWindow {
		t.Errorf("default server negotiated %+v, want chunk %d window %d", h, gateway.DefaultChunk, gateway.DefaultWindow)
	}

	// Another protocol version is refused on stream 0, then hung up.
	conn, f := rawHello(t, daddr, gateway.Hello{Proto: gateway.Proto + 1})
	if f.Kind != gateway.KindErr || f.Stream != 0 || !strings.Contains(string(f.Payload), "not supported") {
		t.Fatalf("wrong protocol answered with %v %q", f.Kind, f.Payload)
	}
	if _, err := gateway.ReadFrame(conn); err == nil {
		t.Fatal("connection stayed open after a refused hello")
	}
}

// TestStreamFrameLimit: a frame header claiming a payload over MaxPayload
// is refused before any allocation. The server reports why on stream 0 and
// hangs up (the connection is mid-frame and cannot be resynchronised).
func TestStreamFrameLimit(t *testing.T) {
	addr, _, _ := startGateway(t, gateway.Options{})
	conn, f := rawHello(t, addr, gateway.Hello{Proto: gateway.Proto})
	negotiated(t, f)

	var hdr [gateway.HdrLen]byte
	binary.LittleEndian.PutUint32(hdr[:], gateway.MaxPayload+1)
	hdr[8] = byte(gateway.KindData)
	binary.LittleEndian.PutUint32(hdr[12:], 1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f, err := gateway.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no frame-limit report: %v", err)
	}
	if f.Kind != gateway.KindErr || f.Stream != 0 || !strings.Contains(string(f.Payload), "exceeds limit") {
		t.Fatalf("frame-limit report = %v %q", f.Kind, f.Payload)
	}
	if _, err := gateway.ReadFrame(conn); err == nil {
		t.Fatal("connection stayed open after an oversize frame")
	}
}

// TestStreamReadCountClamp: read counts come straight off the wire. Huge
// and negative counts, at any offset, are served as the rest of the
// object — in window-bounded chunk frames, never as one count-sized
// buffer — and an offset past the end serves nothing.
func TestStreamReadCountClamp(t *testing.T) {
	const chunk = 8 << 10
	addr, store, g := startGateway(t, gateway.Options{Chunk: chunk, Window: 4, Depth: 4})
	payload := compress.GenFrame(9, 200_000, 0.3)
	ref := loadObject(t, store, adt.KindFChunk, "fast", payload)
	ts := store.Pool().Mgr.Now()

	s := dialStream(t, addr)
	h, err := s.OpenAsOf(ts, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	g.ResetChunkBufferHWM()
	for _, tc := range []struct {
		name   string
		off, n int64
	}{
		{"max count", 0, math.MaxInt64},
		{"max count past zero", 1000, math.MaxInt64},
		{"huge count", 100_000, 1 << 62},
		{"negative count", 150_000, -1},
		{"min count", 150_000, math.MinInt64},
		{"past the end", int64(len(payload)) + 10, math.MaxInt64},
	} {
		var sink bytes.Buffer
		if _, err := h.ReadTo(&sink, tc.off, tc.n); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := []byte{}
		if tc.off < int64(len(payload)) {
			want = payload[tc.off:]
		}
		if !bytes.Equal(sink.Bytes(), want) {
			t.Errorf("%s: served %d bytes, want %d", tc.name, sink.Len(), len(want))
		}
	}
	// depth fetched + window in flight + slack, in chunks.
	if hwm, bound := g.ChunkBufferHWM(), int64((4+4+4)*chunk*2); hwm > bound {
		t.Fatalf("chunk-buffer HWM = %d over a hostile count, want ≤ %d", hwm, bound)
	}
}

// TestStreamWritePayloadLimit: a client write larger than MaxPayload moves
// as window-bounded chunk frames, never one oversize frame, so the server
// holds O(chunk-window) of it at a time; and a refused write is a
// response, not a hangup.
func TestStreamWritePayloadLimit(t *testing.T) {
	const chunk = 16 << 10
	addr, store, g := startGateway(t, gateway.Options{Chunk: chunk, Window: 4})
	ref := loadObject(t, store, adt.KindFChunk, "", nil)
	ts := store.Pool().Mgr.Now()

	s := dialStream(t, addr)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	h, err := s.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	payload := compress.GenFrame(11, 2*gateway.MaxPayload, 0.3)
	g.ResetChunkBufferHWM()
	if n, err := h.Write(payload); err != nil || n != len(payload) {
		t.Fatalf("write = %d, %v", n, err)
	}
	// window in flight + slack, in chunks.
	if hwm, bound := g.ChunkBufferHWM(), int64((4+4)*chunk); hwm <= 0 || hwm > bound {
		t.Fatalf("chunk-buffer HWM = %d for a %d-byte write, want (0, %d]", hwm, len(payload), bound)
	}
	if n, err := h.Size(); err != nil || n != int64(len(payload)) {
		t.Fatalf("size after write = %d, %v", n, err)
	}
	var sink bytes.Buffer
	if _, err := h.ReadTo(&sink, 0, -1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatal("written bytes read back wrong")
	}

	old, err := s.OpenAsOf(ts, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write(payload[:100_000]); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("write through an as-of handle: %v", err)
	}
	if n, err := old.Size(); err != nil || n != 0 {
		t.Fatalf("connection unusable after refused write: size = %d, %v", n, err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}
