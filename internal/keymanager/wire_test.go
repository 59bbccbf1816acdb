package keymanager

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fingerprint"
)

// TestServeAfterShutdown pins the lost race between Serve's start and
// Shutdown: Serve on a server already shut down must close the
// listener it was given and report net.ErrClosed.
func TestServeAfterShutdown(t *testing.T) {
	srv := NewServer(serverKey(t))
	srv.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v, want net.ErrClosed", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener still open after Serve on a shut-down server: Accept returned %v", err)
	}
}

// heapInuse returns the live heap after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestIdleConnectionMemory bounds what an idle key-manager connection
// pins: the client's rpcmux reader plus the server's reader and writer,
// one proto.ConnBufferSize each, and small change. Batch size 1 keeps
// each client's blinding-factor pool (not connection memory) to two
// factors.
func TestIdleConnectionMemory(t *testing.T) {
	_, addr := startServer(t)
	const conns = 200
	const budget = 256 << 10
	before := heapInuse()
	clients := make([]*Client, conns)
	for i := range clients {
		// Dial fetches the public parameters: a round trip that proves
		// the server side of the connection is up.
		c, err := Dial(ctx, addr, WithBatchSize(1))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	grown := heapInuse() - before
	for _, c := range clients {
		c.Close()
	}
	per := grown / conns
	t.Logf("%d idle connections: heap grew %d KiB, %d KiB per connection", conns, grown>>10, per>>10)
	if per > budget {
		t.Fatalf("idle connection pins %d KiB, budget %d KiB", per>>10, budget>>10)
	}
}

// TestLargeKeyGenFramesInterleaved runs key-generation batches whose
// request and response frames exceed proto.ConnBufferSize and 1 MiB
// alongside small frames on one connection. Every key must match
// direct derivation (sampled for the large batch).
func TestLargeKeyGenFramesInterleaved(t *testing.T) {
	// 130 bytes per 1024-bit element and its length varint: 8100
	// elements make frames past 1 MiB, 600 frames past the buffer.
	const huge, mid = 8100, 600
	srv, addr := startServer(t)
	client, err := Dial(ctx, addr, WithBatchSize(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	check := func(ids []fingerprint.Fingerprint, stride int) error {
		keys, err := client.GenerateKeys(ctx, ids)
		if err != nil {
			return err
		}
		for i := 0; i < len(ids); i += stride {
			want, err := srv.key.Derive(ids[i][:])
			if err != nil {
				return err
			}
			if !bytes.Equal(keys[i], want) {
				return fmt.Errorf("batch of %d: key %d does not match direct derivation", len(ids), i)
			}
		}
		return nil
	}
	ops := []func() error{
		func() error { return check(fps(huge), 97) },
		func() error { return check(fps(mid), 7) },
		func() error { return check(fps(3), 1) },
		func() error { _, err := client.Metrics(ctx); return err },
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(ops))
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := op(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// stepClock is a manually advanced clock for token buckets.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (s *Server) limiterCount() int {
	s.limMu.Lock()
	defer s.limMu.Unlock()
	return len(s.limiters)
}

// TestIdleRateLimitersEvicted drives the per-host bucket table with
// many distinct hosts. Buckets of hosts that disconnect full are
// dropped at once; buckets still refilling stay until a sweep finds
// them full; a connected host keeps its throttled bucket throughout.
func TestIdleRateLimitersEvicted(t *testing.T) {
	const rate, burst = 100, 10
	srv := NewServer(serverKey(t), WithRateLimit(rate, burst))
	clock := &stepClock{now: time.Unix(1000, 0)}
	frozen := &stepClock{now: time.Unix(1000, 0)}

	// A busy host: connected throughout, bucket drained on a clock that
	// never advances, so it stays throttled.
	busy, releaseBusy := srv.limiterFor("10.0.0.1")
	defer releaseBusy()
	busy.SetClock(frozen.Now)
	if !busy.Allow(burst) || busy.Allow(1) {
		t.Fatal("busy host's bucket did not drain")
	}

	// Hosts that connect and leave without spending leave nothing behind.
	for i := 0; i < 1000; i++ {
		_, release := srv.limiterFor(fmt.Sprintf("10.1.%d.%d", i>>8, i&255))
		release()
	}
	if n := srv.limiterCount(); n != 1 {
		t.Fatalf("%d buckets after full hosts left, want 1", n)
	}

	// Hosts that leave mid-refill keep their throttled state.
	const idle = 1000
	for i := 0; i < idle; i++ {
		lim, release := srv.limiterFor(fmt.Sprintf("10.2.%d.%d", i>>8, i&255))
		lim.SetClock(clock.Now)
		if !lim.Allow(burst) {
			t.Fatal("fresh bucket was not full")
		}
		release()
	}
	if n := srv.limiterCount(); n != idle+1 {
		t.Fatalf("%d buckets with %d hosts refilling, want %d", n, idle, idle+1)
	}

	// Once they have refilled, the next sweep drops them. New hosts that
	// stay connected grow the table until a sweep runs.
	clock.Advance(time.Second)
	var releases []func()
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	for i := 0; srv.limiterCount() > idle/2 || i == 0; i++ {
		if i > 4*idle {
			t.Fatalf("no sweep after %d new hosts; table holds %d buckets", i, srv.limiterCount())
		}
		_, release := srv.limiterFor(fmt.Sprintf("10.3.%d.%d", i>>8, i&255))
		releases = append(releases, release)
	}
	if n, want := srv.limiterCount(), len(releases)+1; n != want {
		t.Fatalf("%d buckets after the sweep, want %d (connected hosts only)", n, want)
	}

	// The busy host was never evicted: it still holds the same, still
	// empty, bucket.
	again, releaseAgain := srv.limiterFor("10.0.0.1")
	defer releaseAgain()
	if again != busy || again.Tokens() >= 1 {
		t.Fatalf("busy host lost its throttled bucket (tokens %.1f)", again.Tokens())
	}
}

// TestLimiterSharedAcrossConnections checks that a host's connections
// share one bucket while any is open, and that a host returning while
// its bucket refills gets the throttled bucket back, so the limit holds
// per host.
func TestLimiterSharedAcrossConnections(t *testing.T) {
	srv := NewServer(serverKey(t), WithRateLimit(100, 10))
	a, releaseA := srv.limiterFor("10.9.9.9")
	a.SetClock((&stepClock{now: time.Unix(1000, 0)}).Now)
	if !a.Allow(5) {
		t.Fatal("fresh bucket refused")
	}
	b, releaseB := srv.limiterFor("10.9.9.9")
	if a != b {
		t.Fatal("second connection from one host got its own bucket")
	}
	releaseA()
	releaseB()
	c, releaseC := srv.limiterFor("10.9.9.9")
	defer releaseC()
	if c != a {
		t.Fatal("bucket dropped while it was still refilling")
	}
}
