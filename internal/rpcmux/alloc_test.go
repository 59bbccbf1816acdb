package rpcmux

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/proto"
)

// discardConn is a net.Conn whose writes vanish: it isolates the frame
// assembly cost from any real socket.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Read(p []byte) (int, error)       { select {} }
func (discardConn) Close() error                     { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriteFrameZeroAlloc asserts the mux's small-frame write path does
// not allocate in steady state: the assembly buffer comes from the pool
// and the header/payload coalesce into one Write.
func TestWriteFrameZeroAlloc(t *testing.T) {
	c := &Conn{conn: discardConn{}}
	payload := bytes.Repeat([]byte("q"), 8<<10)

	// Warm the pool so the measured runs hit the steady state.
	for i := 0; i < 4; i++ {
		if err := c.writeFrame(proto.MsgPutChunksReq, uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.writeFrame(proto.MsgPutChunksReq, 5, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("small-frame write allocates %v per run, want 0", n)
	}
}

// TestWriteFrameLargeUsesVectoredPath checks large frames bypass the
// pooled copy and still produce a well-formed frame.
func TestWriteFrameLargeUsesVectoredPath(t *testing.T) {
	var sink bytes.Buffer
	payload := bytes.Repeat([]byte("L"), 256<<10)
	c := &Conn{conn: captureConn{w: &sink}}
	if err := c.writeFrame(proto.MsgGetChunksResp, 9, payload); err != nil {
		t.Fatal(err)
	}
	typ, id, body, err := proto.ReadFrame(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if typ != proto.MsgGetChunksResp || id != 9 || !bytes.Equal(body, payload) {
		t.Fatal("vectored frame round trip mismatch")
	}
}

type captureConn struct {
	net.Conn
	w *bytes.Buffer
}

func (c captureConn) Write(p []byte) (int, error)    { return c.w.Write(p) }
func (captureConn) Close() error                     { return nil }
func (captureConn) SetDeadline(time.Time) error      { return nil }
func (captureConn) SetReadDeadline(time.Time) error  { return nil }
func (captureConn) SetWriteDeadline(time.Time) error { return nil }
