package rpcmux

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/retry"
)

// echoServer answers every frame with MsgStatsResp echoing the payload,
// except that scripted connections are killed (closed without a
// response) when a scripted request number arrives — simulating a peer
// crash mid-conversation.
type echoServer struct {
	ln net.Listener

	mu        sync.Mutex
	conns     int
	killAt    map[int]int // conn index -> kill on arrival of this request number (1-based)
	connsSeen []net.Conn
}

func newEchoServer(t *testing.T) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ln: ln, killAt: make(map[int]int)}
	go s.acceptLoop()
	t.Cleanup(s.stop)
	return s
}

func (s *echoServer) stop() {
	_ = s.ln.Close()
	s.mu.Lock()
	for _, c := range s.connsSeen {
		_ = c.Close()
	}
	s.mu.Unlock()
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

// kill schedules connection conn (0-based dial order) to die when its
// reqNum-th request (1-based) arrives, before any response is sent.
func (s *echoServer) kill(conn, reqNum int) {
	s.mu.Lock()
	s.killAt[conn] = reqNum
	s.mu.Unlock()
}

func (s *echoServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		idx := s.conns
		s.conns++
		s.connsSeen = append(s.connsSeen, conn)
		s.mu.Unlock()
		go s.serve(conn, idx)
	}
}

func (s *echoServer) serve(conn net.Conn, idx int) {
	defer conn.Close()
	served := 0
	for {
		_, id, payload, err := proto.ReadFrame(conn)
		if err != nil {
			return
		}
		served++
		s.mu.Lock()
		killAt := s.killAt[idx]
		s.mu.Unlock()
		if killAt > 0 && served >= killAt {
			return // deferred Close: the peer crashed mid-conversation
		}
		if err := proto.WriteFrame(conn, proto.MsgStatsResp, id, payload); err != nil {
			return
		}
	}
}

// isTransportErr reports whether err is a connection-level failure
// (reset, refused, EOF, closed) as opposed to a protocol or routing
// bug inside the mux.
func isTransportErr(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

func testPolicy() retry.Policy {
	return retry.Policy{
		InitialDelay: time.Millisecond,
		MaxDelay:     10 * time.Millisecond,
		MaxAttempts:  5,
		Seed:         1,
	}
}

func newTestRedialer(t *testing.T, s *echoServer) *Redialer {
	t.Helper()
	dial := func() (net.Conn, error) { return net.Dial("tcp", s.addr()) }
	first, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRedialer(first, dial, testPolicy())
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func TestRedialerReissuesIdempotentCallAfterPeerCrash(t *testing.T) {
	s := newEchoServer(t)
	s.kill(0, 2) // first connection dies when the second request arrives
	r := newTestRedialer(t, s)

	ctx := context.Background()
	if _, err := r.Call(ctx, proto.MsgStatsReq, []byte("one"), proto.MsgStatsResp, true); err != nil {
		t.Fatalf("first call: %v", err)
	}
	got, err := r.Call(ctx, proto.MsgStatsReq, []byte("two"), proto.MsgStatsResp, true)
	if err != nil {
		t.Fatalf("call across peer crash: %v", err)
	}
	if string(got) != "two" {
		t.Fatalf("payload = %q, want %q", got, "two")
	}
	if n := r.Reconnects(); n != 1 {
		t.Fatalf("Reconnects() = %d, want 1", n)
	}
	if n := r.Retries(); n < 1 {
		t.Fatalf("Retries() = %d, want >= 1", n)
	}
}

func TestRedialerDoesNotReissueNonIdempotentCall(t *testing.T) {
	s := newEchoServer(t)
	s.kill(0, 2)
	r := newTestRedialer(t, s)

	ctx := context.Background()
	if _, err := r.Call(ctx, proto.MsgStatsReq, []byte("one"), proto.MsgStatsResp, false); err != nil {
		t.Fatalf("first call: %v", err)
	}
	// The in-flight frame was delivered before the crash: the peer may
	// have executed it, so the call must fail rather than re-issue.
	if _, err := r.Call(ctx, proto.MsgStatsReq, []byte("two"), proto.MsgStatsResp, false); err == nil {
		t.Fatal("non-idempotent call silently re-issued after peer crash")
	}
	// But the redialer recovers: the next call finds a fresh connection.
	got, err := r.Call(ctx, proto.MsgStatsReq, []byte("three"), proto.MsgStatsResp, false)
	if err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
	if string(got) != "three" {
		t.Fatalf("payload = %q, want %q", got, "three")
	}
	if n := r.Reconnects(); n != 1 {
		t.Fatalf("Reconnects() = %d, want 1", n)
	}
}

func TestRedialerRetriesDialFailures(t *testing.T) {
	// A server that is down for the first dial attempts and comes back:
	// simulate with a dial func that fails twice then connects.
	s := newEchoServer(t)
	s.kill(0, 1) // initial conn dies on first use
	var dials atomic.Int64
	dial := func() (net.Conn, error) {
		if dials.Add(1) <= 2 {
			return nil, errors.New("connection refused")
		}
		return net.Dial("tcp", s.addr())
	}
	first, err := net.Dial("tcp", s.addr())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRedialer(first, dial, testPolicy())
	defer r.Close()

	got, err := r.Call(context.Background(), proto.MsgStatsReq, []byte("x"), proto.MsgStatsResp, true)
	if err != nil {
		t.Fatalf("call across down window: %v", err)
	}
	if string(got) != "x" {
		t.Fatalf("payload = %q", got)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("dial attempts = %d, want 3 (two refused, one success)", n)
	}
}

func TestRedialerGivesUpAfterAttemptCap(t *testing.T) {
	s := newEchoServer(t)
	s.kill(0, 1)
	dial := func() (net.Conn, error) { return nil, errors.New("connection refused") }
	first, err := net.Dial("tcp", s.addr())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRedialer(first, dial, testPolicy())
	defer r.Close()

	start := time.Now()
	_, err = r.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp, true)
	if err == nil {
		t.Fatal("call against a permanently down peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

// TestChaosRedialRacesClose hammers a redialer with concurrent
// idempotent calls while the peer kills connections and the client
// closes the redialer mid-storm: no call may hang, and every call after
// Close fails with ErrClosed.
func TestChaosRedialRacesClose(t *testing.T) {
	s := newEchoServer(t)
	for i := 0; i < 64; i++ {
		s.kill(i, 3) // every connection dies after two served requests
	}
	r := newTestRedialer(t, s)

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				payload := []byte(fmt.Sprintf("w%d-%d", w, i))
				got, err := r.Call(context.Background(), proto.MsgStatsReq, payload, proto.MsgStatsResp, true)
				if err != nil {
					// With every connection scripted to die after two
					// requests, a call can burn through the policy's
					// MaxAttempts and surface the transport error —
					// bounded retry working as specified. Only a
					// non-transport error is a bug here.
					if !errors.Is(err, ErrClosed) && !isTransportErr(err) {
						errs <- fmt.Errorf("worker %d: %v", w, err)
					}
					return
				}
				if string(got) != string(payload) {
					errs <- fmt.Errorf("worker %d: response %q for request %q", w, got, payload)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	_ = r.Close()
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers hung after Close")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, err := r.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close returned %v, want ErrClosed", err)
	}
}
