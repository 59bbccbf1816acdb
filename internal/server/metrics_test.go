package server

import (
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/store"
)

// TestNilRegistryAddsNoAllocations pins the "disabled means free"
// contract: on an uninstrumented server the timed dispatch wrapper must
// add zero allocations to the PutChunks hot path over calling dispatch
// directly.
func TestNilRegistryAddsNoAllocations(t *testing.T) {
	// Each dispatch commits a WAL segment, so a server's allocation
	// profile drifts as segments accumulate in the backend. Measuring
	// direct and timed dispatch on two identically-prepared servers
	// keeps the comparison stationary.
	newProbe := func() *Server {
		srv, err := New(ctx, store.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		if srv.reg != nil || srv.ops != nil {
			t.Fatal("server without WithMetrics must stay uninstrumented")
		}
		return srv
	}
	data := []byte("metrics-alloc-probe")
	payload := proto.EncodePutChunksReq([]proto.ChunkUpload{
		{FP: fingerprint.New(data), Data: data},
	})
	directSrv, timedSrv := newProbe(), newProbe()
	// Warm up so both measurements see the steady dedup-hit path, not
	// the first-insert path.
	if r := directSrv.dispatch(ctx, proto.MsgPutChunksReq, payload); r.typ != proto.MsgPutChunksResp {
		t.Fatalf("warmup dispatch returned %v", r.typ)
	}
	if r := timedSrv.dispatchTimed(ctx, proto.MsgPutChunksReq, payload); r.typ != proto.MsgPutChunksResp {
		t.Fatalf("warmup dispatchTimed returned %v", r.typ)
	}

	direct := testing.AllocsPerRun(200, func() {
		directSrv.dispatch(ctx, proto.MsgPutChunksReq, payload)
	})
	timed := testing.AllocsPerRun(200, func() {
		timedSrv.dispatchTimed(ctx, proto.MsgPutChunksReq, payload)
	})
	if timed > direct {
		t.Fatalf("dispatchTimed allocates %.1f/op vs dispatch %.1f/op; nil registry must add zero", timed, direct)
	}
}

// TestInstrumentedDispatchCounts sanity-checks the other side of the
// contract: with a registry attached, PutChunks dispatches show up in
// the per-op families and the dedup gauges reflect the store.
func TestInstrumentedDispatchCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := New(ctx, store.NewMemory(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("instrumented-dispatch-probe")
	payload := proto.EncodePutChunksReq([]proto.ChunkUpload{
		{FP: fingerprint.New(data), Data: data},
	})
	for i := 0; i < 3; i++ {
		if r := srv.dispatchTimed(ctx, proto.MsgPutChunksReq, payload); r.typ != proto.MsgPutChunksResp {
			t.Fatalf("dispatch %d returned %v", i, r.typ)
		}
	}

	snap := srv.MetricsSnapshot()
	op := metrics.Label("dispatch_total", "op", "PutChunks")
	if got := snap.Counters[op]; got != 3 {
		t.Fatalf("%s = %d, want 3", op, got)
	}
	lat := metrics.Label("dispatch_latency", "op", "PutChunks")
	if h, ok := snap.Histograms[lat]; !ok || h.Count != 3 {
		t.Fatalf("%s count = %v, want 3 observations", lat, h.Count)
	}
	if got := snap.Counters["dedup_total_puts"]; got != 3 {
		t.Fatalf("dedup_total_puts = %d, want 3", got)
	}
	if got := snap.Counters["dedup_deduped_puts"]; got != 2 {
		t.Fatalf("dedup_deduped_puts = %d, want 2 (same chunk re-put twice)", got)
	}
	if got := snap.Gauges["dedup_logical_bytes"]; got != float64(3*len(data)) {
		t.Fatalf("dedup_logical_bytes = %v, want %d", got, 3*len(data))
	}
	if got := snap.Gauges["dedup_container_count"]; got < 1 {
		t.Fatalf("dedup_container_count = %v, want >= 1", got)
	}
}
