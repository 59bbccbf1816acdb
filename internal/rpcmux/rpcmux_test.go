package rpcmux

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
)

// testFrame is one request captured by the fake peer.
type testFrame struct {
	typ     proto.MsgType
	id      uint64
	payload []byte
}

// fakePeer is the server end of a pipe: it reads frames and hands them
// to the test, which replies explicitly (possibly out of order).
type fakePeer struct {
	conn net.Conn
	reqs chan testFrame

	wmu sync.Mutex
}

func newPipePeer(t *testing.T) (*Conn, *fakePeer) {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	p := &fakePeer{conn: serverEnd, reqs: make(chan testFrame, 64)}
	go func() {
		for {
			typ, id, payload, err := proto.ReadFrame(serverEnd)
			if err != nil {
				close(p.reqs)
				return
			}
			p.reqs <- testFrame{typ: typ, id: id, payload: payload}
		}
	}()
	mux := New(clientEnd)
	t.Cleanup(func() {
		mux.Close()
		serverEnd.Close()
	})
	return mux, p
}

// recv returns the next captured request; the zero frame (ID 0, never
// assigned by the mux) means the connection closed or timed out. Safe
// to call from helper goroutines: it never fails the test directly.
func (p *fakePeer) recv(t *testing.T) testFrame {
	t.Helper()
	select {
	case f := <-p.reqs:
		return f
	case <-time.After(5 * time.Second):
		return testFrame{}
	}
}

// reply sends a response frame for the given request ID. Write errors
// are swallowed: they only occur in teardown races, where the main
// goroutine's assertions already decide the test.
func (p *fakePeer) reply(typ proto.MsgType, id uint64, payload []byte) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	_ = proto.WriteFrame(p.conn, typ, id, payload)
}

func TestCallRoundTrip(t *testing.T) {
	mux, peer := newPipePeer(t)
	go func() {
		f := peer.recv(t)
		peer.reply(proto.MsgStatsResp, f.id, []byte("pong"))
	}()
	got, err := mux.Call(context.Background(), proto.MsgStatsReq, []byte("ping"), proto.MsgStatsResp)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "pong" {
		t.Fatalf("payload = %q", got)
	}
}

func TestOutOfOrderResponses(t *testing.T) {
	mux, peer := newPipePeer(t)

	// Collect both requests first, then answer them in reverse order.
	go func() {
		a := peer.recv(t)
		b := peer.recv(t)
		peer.reply(proto.MsgGetBlobResp, b.id, append([]byte("resp:"), b.payload...))
		peer.reply(proto.MsgGetBlobResp, a.id, append([]byte("resp:"), a.payload...))
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, name := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			got, err := mux.Call(context.Background(), proto.MsgGetBlobReq, []byte(name), proto.MsgGetBlobResp)
			if err != nil {
				errs <- err
				return
			}
			if string(got) != "resp:"+name {
				errs <- fmt.Errorf("call %q got %q: response matched to wrong request", name, got)
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	mux, peer := newPipePeer(t)

	// Echo server that batches a few requests before answering, in
	// arrival-reversed order, to exercise the demux under load.
	go func() {
		for {
			var batch []testFrame
			f, ok := <-peer.reqs
			if !ok {
				return
			}
			batch = append(batch, f)
		drain:
			for len(batch) < 4 {
				select {
				case f, ok := <-peer.reqs:
					if !ok {
						return
					}
					batch = append(batch, f)
				default:
					break drain
				}
			}
			for i := len(batch) - 1; i >= 0; i-- {
				peer.reply(proto.MsgGetBlobResp, batch[i].id, batch[i].payload)
			}
		}
	}()

	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("payload-%d", i))
			got, err := mux.Call(context.Background(), proto.MsgGetBlobReq, want, proto.MsgGetBlobResp)
			if err != nil {
				errs <- err
				return
			}
			if string(got) != string(want) {
				errs <- fmt.Errorf("call %d got %q", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCancelWhileWaitingKeepsConnUsable(t *testing.T) {
	mux, peer := newPipePeer(t)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := mux.Call(ctx, proto.MsgStatsReq, []byte("slow"), proto.MsgStatsResp)
		done <- err
	}()
	slow := peer.recv(t) // request arrived; withhold the response
	// Let the caller finish its (already-consumed) write and release the
	// write guard: a cancel that lands inside the guarded write window is
	// treated conservatively as a poisoned stream, which is not the path
	// under test here.
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}

	// The late response must be discarded and the connection must keep
	// working for new calls.
	peer.reply(proto.MsgStatsResp, slow.id, []byte("too late"))
	go func() {
		f := peer.recv(t)
		peer.reply(proto.MsgStatsResp, f.id, []byte("fresh"))
	}()
	got, err := mux.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp)
	if err != nil {
		t.Fatalf("call after clean cancel failed: %v", err)
	}
	if string(got) != "fresh" {
		t.Fatalf("got %q, late response leaked into a new call", got)
	}
}

func TestCancelDuringWritePoisonsConn(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer serverEnd.Close()
	mux := New(clientEnd)
	defer mux.Close()

	// The peer never reads, so the frame write blocks on the pipe until
	// the context deadline poisons the connection.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	big := make([]byte, 1<<20) // larger than the write buffer: Flush must hit the socket
	_, err := mux.Call(ctx, proto.MsgPutBlobReq, big, proto.MsgPutBlobResp)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted write returned %v, want context.DeadlineExceeded", err)
	}

	// A half-written frame desynchronizes the stream: the Conn must be
	// dead now.
	if _, err := mux.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on poisoned conn returned %v, want ErrClosed", err)
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	mux, peer := newPipePeer(t)
	done := make(chan error, 1)
	go func() {
		_, err := mux.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp)
		done <- err
	}()
	peer.recv(t)
	mux.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("pending call after Close returned %v, want ErrClosed", err)
	}
	if _, err := mux.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close returned %v, want ErrClosed", err)
	}
}

func TestPeerDisconnectFailsPendingCalls(t *testing.T) {
	mux, peer := newPipePeer(t)
	done := make(chan error, 1)
	go func() {
		_, err := mux.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp)
		done <- err
	}()
	peer.recv(t)
	peer.conn.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("pending call after peer disconnect returned %v, want ErrClosed", err)
	}
}

func TestRemoteErrorDecoded(t *testing.T) {
	mux, peer := newPipePeer(t)
	go func() {
		f := peer.recv(t)
		peer.reply(proto.MsgError, f.id, proto.EncodeError("boom"))
	}()
	_, err := mux.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp)
	var re *proto.RemoteError
	if !errors.As(err, &re) || re.Message != "boom" {
		t.Fatalf("err = %v, want RemoteError(boom)", err)
	}
}

func TestUnexpectedResponseType(t *testing.T) {
	mux, peer := newPipePeer(t)
	go func() {
		f := peer.recv(t)
		peer.reply(proto.MsgGetBlobResp, f.id, nil)
	}()
	if _, err := mux.Call(context.Background(), proto.MsgStatsReq, nil, proto.MsgStatsResp); err == nil {
		t.Fatal("mismatched response type accepted")
	}
}
