package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run sees the program only from outside: it wraps the
// store.Backend each server is given and the Dialer each client is
// given, snapshots the metrics registries the benchmark hands to the
// daemons and clients, times the calls it makes, and replays the run's
// own inputs through each layer's public API (replay.go). Nothing is
// traced inside the program.

// spanKind is the boundary a span was recorded at.
type spanKind uint8

const (
	spanOp    spanKind = iota // a root operation
	spanStore                 // one Backend call on a server
	spanWrite                 // one Write on a client connection
)

// span is one timed call. Start and end are offsets from the tracer's
// epoch; op is the index of the root operation whose window holds the
// span, or -1 when none does.
type span struct {
	Kind  spanKind      `json:"kind"`
	Name  string        `json:"name"`
	Where string        `json:"where,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Bytes int64         `json:"bytes"`
	Op    int           `json:"op"`
}

// peers a client connects to, for the wire counters.
const (
	peerKM = iota
	peerShard
	peerKeystore
	numPeers
)

var peerNames = [numPeers]string{"km", "shard", "keystore"}

// tracer records spans and counters for one traced run.
type tracer struct {
	epoch time.Time

	mu        sync.Mutex
	spans     []span
	recording bool

	up, down [numPeers]atomic.Int64
	writeNS  atomic.Int64

	d         *deployment
	clients   []*client.Client
	perOpFlag bool
	begun     sample
	marked    sample // ingest's phase boundary
	perOp     []opSample
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if t.recording {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// --- the store.Backend wrapper ---

type tracedBackend struct {
	store.Backend
	tr    *tracer
	where string
}

func (t *tracer) wrapBackend(b store.Backend, server int) store.Backend {
	where := "keystore"
	if server < dataShards {
		where = "shard"
	}
	return &tracedBackend{Backend: b, tr: t, where: where}
}

func (b *tracedBackend) span(name, ns string, start time.Time, n int) {
	b.tr.add(span{Kind: spanStore, Name: name + ":" + ns, Where: b.where,
		Start: b.tr.since(start), End: b.tr.since(time.Now()), Bytes: int64(n), Op: -1})
}

func (b *tracedBackend) Put(ctx context.Context, ns, name string, data []byte) error {
	start := time.Now()
	err := b.Backend.Put(ctx, ns, name, data)
	b.span("put", ns, start, len(data))
	return err
}

func (b *tracedBackend) Get(ctx context.Context, ns, name string) ([]byte, error) {
	start := time.Now()
	data, err := b.Backend.Get(ctx, ns, name)
	b.span("get", ns, start, len(data))
	return data, err
}

func (b *tracedBackend) GetRange(ctx context.Context, ns, name string, off, n int64) ([]byte, error) {
	start := time.Now()
	data, err := b.Backend.GetRange(ctx, ns, name, off, n)
	b.span("getrange", ns, start, len(data))
	return data, err
}

func (b *tracedBackend) Has(ctx context.Context, ns, name string) (bool, error) {
	start := time.Now()
	ok, err := b.Backend.Has(ctx, ns, name)
	b.span("has", ns, start, 0)
	return ok, err
}

func (b *tracedBackend) Delete(ctx context.Context, ns, name string) error {
	start := time.Now()
	err := b.Backend.Delete(ctx, ns, name)
	b.span("delete", ns, start, 0)
	return err
}

func (b *tracedBackend) List(ctx context.Context, ns string) ([]string, error) {
	start := time.Now()
	names, err := b.Backend.List(ctx, ns)
	b.span("list", ns, start, 0)
	return names, err
}

// --- the client Dialer wrapper ---

type tracedConn struct {
	net.Conn
	tr   *tracer
	peer int
}

func (t *tracer) dialer(d *deployment) server.Dialer {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		peer := peerShard
		switch addr {
		case d.kmAddr:
			peer = peerKM
		case d.keyAddr:
			peer = peerKeystore
		}
		return &tracedConn{Conn: conn, tr: t, peer: peer}, nil
	}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	end := time.Now()
	c.tr.up[c.peer].Add(int64(n))
	c.tr.writeNS.Add(int64(end.Sub(start)))
	c.tr.add(span{Kind: spanWrite, Name: "write", Where: peerNames[c.peer],
		Start: c.tr.since(start), End: c.tr.since(end), Bytes: int64(n), Op: -1})
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.down[c.peer].Add(int64(n))
	return n, err
}

// --- cumulative samples and their differences ---

// sample is every cumulative counter the traced run can read at one
// instant: the clients' and servers' registries, the wire counters, the
// key caches, and the key manager's evaluations.
type sample struct {
	client, server      metrics.Snapshot
	up, down            [numPeers]int64
	writeNS             int64
	cacheHits, cacheMis uint64
	evaluations         uint64
}

func (t *tracer) sample(clients []*client.Client) sample {
	var s sample
	snaps := make([]metrics.Snapshot, 0, len(clients))
	for _, c := range clients {
		snaps = append(snaps, c.Metrics().Snapshot())
		h, m := c.CacheStats()
		s.cacheHits += h
		s.cacheMis += m
	}
	s.client = metrics.Merge(snaps...)
	snaps = snaps[:0]
	for _, reg := range t.d.serverReg {
		snaps = append(snaps, reg.Snapshot())
	}
	s.server = metrics.Merge(snaps...)
	for p := 0; p < numPeers; p++ {
		s.up[p] = t.up[p].Load()
		s.down[p] = t.down[p].Load()
	}
	s.writeNS = t.writeNS.Load()
	s.evaluations = t.d.km.Evaluations()
	return s
}

// minus returns s − o for counters and histograms.
func (s sample) minus(o sample) sample {
	out := s
	out.client = snapMinus(s.client, o.client)
	out.server = snapMinus(s.server, o.server)
	for p := 0; p < numPeers; p++ {
		out.up[p] -= o.up[p]
		out.down[p] -= o.down[p]
	}
	out.writeNS -= o.writeNS
	out.cacheHits -= o.cacheHits
	out.cacheMis -= o.cacheMis
	out.evaluations -= o.evaluations
	return out
}

// plus adds o's counters and histograms to s.
func (s sample) plus(o sample) sample {
	out := s
	out.client = metrics.Merge(s.client, o.client)
	out.server = metrics.Merge(s.server, o.server)
	for p := 0; p < numPeers; p++ {
		out.up[p] += o.up[p]
		out.down[p] += o.down[p]
	}
	out.writeNS += o.writeNS
	out.cacheHits += o.cacheHits
	out.cacheMis += o.cacheMis
	out.evaluations += o.evaluations
	return out
}

func snapMinus(a, b metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]metrics.HistogramSnapshot{}}
	for n, v := range a.Counters {
		out.Counters[n] = v - b.Counters[n]
	}
	for n, h := range a.Histograms {
		o := b.Histograms[n]
		d := metrics.HistogramSnapshot{Count: h.Count - o.Count, SumNS: h.SumNS - o.SumNS, Buckets: append([]uint64(nil), h.Buckets...)}
		for i := range o.Buckets {
			if i < len(d.Buckets) {
				d.Buckets[i] -= o.Buckets[i]
			}
		}
		out.Histograms[n] = d
	}
	return out
}

// histSum adds the observed time of every histogram whose name starts
// with family and carries all the given label fragments.
func histSum(s metrics.Snapshot, family string, labels ...string) (time.Duration, uint64) {
	var sum, n uint64
	for name, h := range s.Histograms {
		if !strings.HasPrefix(name, family+"{") && name != family {
			continue
		}
		if !hasLabels(name, labels) {
			continue
		}
		sum += h.SumNS
		n += h.Count
	}
	return time.Duration(sum), n
}

// histMerged merges the histograms keep selects by name, for
// quantiles.
func histMerged(s metrics.Snapshot, keep func(name string) bool) metrics.HistogramSnapshot {
	var parts []metrics.Snapshot
	for name, h := range s.Histograms {
		if keep(name) {
			parts = append(parts, metrics.Snapshot{Histograms: map[string]metrics.HistogramSnapshot{"x": h}})
		}
	}
	return metrics.Merge(parts...).Histograms["x"]
}

func hasLabels(name string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(name, l) {
			return false
		}
	}
	return true
}

// --- root operations ---

// opSample is one root operation with the counters it moved.
type opSample struct {
	op       op
	delta    sample
	gen, pre time.Duration // the benchmark's own source or sink time
}

// opBegin starts a root operation and returns what opEnd needs: nil
// for an operation the trace skips (set-up, or any in an untraced run),
// and otherwise the counters now, sampled only when one operation is in
// flight, so opEnd can attribute the difference to this operation
// alone.
func (t *tracer) opBegin(c *client.Client, timed bool) *sample {
	if t == nil || !timed {
		return nil
	}
	var before sample
	if t.perOpFlag {
		before = t.sample([]*client.Client{c})
	}
	return &before
}

func (t *tracer) opEnd(before *sample, c *client.Client, o op, tm *ioTime) {
	if t == nil || before == nil {
		return
	}
	s := opSample{op: o, gen: time.Duration(tm.post.Load()), pre: time.Duration(tm.pre.Load())}
	if t.perOpFlag {
		s.delta = t.sample([]*client.Client{c}).minus(*before)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Kind: spanOp, Name: o.kind.String(), Where: o.path,
		Start: t.since(o.start), End: t.since(o.end), Bytes: o.bytes, Op: -1})
	t.perOp = append(t.perOp, s)
	t.mu.Unlock()
}

// begin starts recording at the start of the timed phase.
func (t *tracer) begin(d *deployment, clients []*client.Client, perOp bool) {
	t.d = d
	t.clients = clients
	t.perOpFlag = perOp
	t.begun = t.sample(clients)
	t.mu.Lock()
	t.recording = true
	t.mu.Unlock()
}

// mark samples every counter at a phase boundary of a workload whose
// operations overlap (ingest's switch from uploads to restores).
func (t *tracer) mark() {
	if t == nil {
		return
	}
	t.marked = t.sample(t.clients)
}

// stop ends recording and returns the spans with each assigned to the
// root operation whose window holds its start.
func (t *tracer) stop() []span {
	t.mu.Lock()
	t.recording = false
	spans := t.spans
	t.mu.Unlock()
	var roots []int
	for i, s := range spans {
		if s.Kind == spanOp {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].Start < spans[roots[b]].Start })
	for i := range spans {
		if spans[i].Kind == spanOp {
			continue
		}
		k := sort.Search(len(roots), func(j int) bool { return spans[roots[j]].Start > spans[i].Start }) - 1
		if k >= 0 && spans[i].Start < spans[roots[k]].End {
			spans[i].Op = roots[k]
		}
	}
	return spans
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
