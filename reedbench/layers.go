package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// layerNames are the per-layer metrics of the traced result line, in
// BENCHMARK.json order: the ones every workload produces. The traced
// run prints every other per-layer metric too (README.md has the map).
var layerNames = []string{
	"chunker.MBps",
	"fingerprint.MBps",
	"oprf.blind_us",
	"oprf.evaluate_us",
	"oprf.finalize_us",
	"keymanager.evaluations",
	"keycache.hit_ratio",
	"core.encrypt_MBps",
	"core.decrypt_MBps",
	"fileindex.hit_ratio",
	"wire.up_MB.shard",
	"wire.down_MB.shard",
	"wire.up_MB.keystore",
	"wire.down_MB.keystore",
	"wire.write_s",
	"cluster.putblob_ms_p50",
	"cluster.getblob_ms_p50",
	"server.dispatch_s.PutBlob",
	"server.dispatch_s.GetBlob",
	"dedup.dup_ratio",
	"dedup.containers",
	"store.put_calls.keystates",
	"store.put_s.keystates",
	"store.put_calls.stubs",
	"store.read_MB",
	"store.read_s",
	"abe.encrypt_ms",
	"abe.decrypt_ms",
	"keyreg.wind_ms",
	"keyreg.unwind_ms",
	"trace.wall_s",
	"trace.layer_sum_s",
}

// budgetTolerance is how far an operation type's layer sum may stray
// from its wall time, as a share of the wall time, before the budget
// check reports it unaccounted. It applies where one operation is in
// flight; ingest overlaps two uploads and a pipeline's stages, so its
// layer sum is reported without the check.
const budgetTolerance = 0.25

// storeNamespaces are the backend namespaces the store metrics cover.
var storeNamespaces = []string{"containers", "wal", "meta", "filewal", "recipes", "stubs", "keystates"}

// clusterOps are the storage RPCs reported per layer.
var clusterOps = []string{"PutChunks", "HasChunks", "RefChunks", "GetChunks", "PutBlob", "GetBlob", "CheckFile"}

// shardLatency merges the client's rpc_latency histograms for op over
// the data shards only (not the key manager or key-store connections).
func shardLatency(s metrics.Snapshot, op string) metrics.HistogramSnapshot {
	return histMerged(s, func(name string) bool {
		return strings.HasPrefix(name, "rpc_latency{") && strings.Contains(name, `op="`+op+`"`) &&
			!strings.Contains(name, `shard="`+sourceKeyManager+`"`) && !strings.Contains(name, `shard="`+sourceKeyStore+`"`)
	})
}

// The shard-label values the client gives its control connections.
const (
	sourceKeyManager = "keymanager"
	sourceKeyStore   = "keystore"
)

func rpcSum(s metrics.Snapshot, ops ...string) time.Duration {
	var total time.Duration
	for _, op := range ops {
		d, _ := histSum(s, "rpc_latency", `op="`+op+`"`)
		total += d
	}
	return total
}

// fanOut is the time of chunk RPCs the router sends to every shard at
// once: their latency sum over the shards, divided by the shard count.
func fanOut(s metrics.Snapshot, ops ...string) time.Duration {
	return rpcSum(s, ops...) / dataShards
}

// layerSet is the traced run's per-layer output.
type layerSet struct {
	all      map[string]metric
	selected map[string]metric
}

// finish stops recording, writes the spans, replays the run's inputs,
// and computes every per-layer metric and the budget check.
func (t *tracer) finish(r *run) (layerSet, error) {
	end := t.sample(t.clients)
	spans := t.stop()
	if err := writeSpans(traceFile(r.cfg), spans); err != nil {
		return layerSet{}, err
	}
	rt, err := replayLayers(r)
	if err != nil {
		return layerSet{}, err
	}

	// Totals: with one operation in flight, the sum of per-operation
	// differences, which leaves out rekey's untimed checks; otherwise
	// the difference across the timed phase.
	var tot sample
	if t.perOpFlag {
		for _, s := range t.perOp {
			tot = tot.plus(s.delta)
		}
	} else {
		tot = end.minus(t.begun)
	}

	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var uploaded float64
	for _, o := range r.ops {
		if o.kind == opUpload && !o.failed {
			uploaded += float64(o.bytes)
		}
	}

	// Replayed layers.
	set("chunker.MBps", rt.chunkMBps, "MB/s")
	set("fingerprint.MBps", rt.fpMBps, "MB/s")
	set("oprf.blind_us", rt.blindUS, "us")
	set("oprf.evaluate_us", rt.evaluateUS, "us")
	set("oprf.finalize_us", rt.finalizeUS, "us")
	set("core.encrypt_MBps", rt.encryptMBps, "MB/s")
	set("core.decrypt_MBps", rt.decryptMBps, "MB/s")
	set("abe.decrypt_ms", rt.abeDecryptMS, "ms")
	set("keyreg.wind_ms", rt.windMS, "ms")
	set("keyreg.unwind_ms", rt.unwindMS, "ms")
	var abeSum, abeN float64
	for _, o := range r.ops {
		if o.pol != nil {
			abeSum += rt.abeEncryptMS[o.pol.CountLeaves()]
			abeN++
		}
	}
	set("abe.encrypt_ms", ratio(abeSum, abeN), "ms")

	// Client pipeline stages, key manager, caches.
	for _, st := range []string{"chunk", "keys", "encrypt", "upload"} {
		d, _ := histSum(tot.client, "pipeline_stage_latency", `stage="`+st+`"`)
		set("client.stage_"+st+"_s", d.Seconds(), "s")
	}
	kg := histMerged(tot.client, func(name string) bool {
		return strings.HasPrefix(name, "rpc_latency{") && strings.Contains(name, `op="KeyGen"`)
	})
	set("keymanager.keygen_ms_p50", ms(kg.Quantile(0.5)), "ms")
	set("keymanager.evaluations", float64(tot.evaluations), "count")
	set("keycache.hit_ratio", ratio(float64(tot.cacheHits), float64(tot.cacheHits+tot.cacheMis)), "ratio")
	hits := float64(tot.client.Counters["upload_wholefile_hits"])
	misses := float64(tot.client.Counters["upload_wholefile_misses"])
	set("fileindex.hit_ratio", ratio(hits, hits+misses), "ratio")
	set("client.wire_bytes_per_user_byte", ratio(float64(tot.client.Counters["upload_wire_bytes"]), uploaded), "ratio")

	// Wire, through the wrapped connections.
	for p := 0; p < numPeers; p++ {
		set("wire.up_MB."+peerNames[p], float64(tot.up[p])/mb, "MB")
		set("wire.down_MB."+peerNames[p], float64(tot.down[p])/mb, "MB")
	}
	set("wire.write_s", time.Duration(tot.writeNS).Seconds(), "s")

	// Cluster RPCs as the client sees them, and server dispatch time.
	for _, op := range clusterOps {
		set("cluster."+strings.ToLower(op)+"_ms_p50", ms(shardLatency(tot.client, op).Quantile(0.5)), "ms")
	}
	for _, op := range append(clusterOps, "RegisterFile") {
		d, _ := histSum(tot.server, "dispatch_latency", `op="`+op+`"`)
		set("server.dispatch_s."+op, d.Seconds(), "s")
	}

	// Dedup.
	set("dedup.dup_ratio", ratio(float64(tot.server.Counters["dedup_deduped_puts"]), float64(tot.server.Counters["dedup_total_puts"])), "ratio")
	set("dedup.containers", end.server.Gauges["dedup_container_count"], "count")

	// Store, from the Backend spans of the timed operations.
	var putBytes, readBytes int64
	var readTime time.Duration
	calls := map[string]int{}
	putMB := map[string]float64{}
	putTime := map[string]time.Duration{}
	for _, s := range spans {
		if s.Kind != spanStore || (t.perOpFlag && s.Op < 0) {
			continue
		}
		verb, ns, _ := strings.Cut(s.Name, ":")
		d := s.End - s.Start
		switch verb {
		case "put":
			calls["put:"+ns]++
			putMB[ns] += float64(s.Bytes) / mb
			putTime[ns] += d
			putBytes += s.Bytes
		case "get", "getrange":
			calls[verb+":"+ns]++
			readBytes += s.Bytes
			readTime += d
		}
	}
	for _, ns := range storeNamespaces {
		set("store.put_calls."+ns, float64(calls["put:"+ns]), "count")
		set("store.put_MB."+ns, putMB[ns], "MB")
		set("store.put_s."+ns, putTime[ns].Seconds(), "s")
	}
	set("store.get_calls.containers", float64(calls["get:containers"]), "count")
	set("store.getrange_calls.containers", float64(calls["getrange:containers"]), "count")
	set("store.read_MB", float64(readBytes)/mb, "MB")
	set("store.read_s", readTime.Seconds(), "s")
	set("store.write_amp", ratio(float64(putBytes), uploaded), "ratio")

	t.budget(r, rt, end, m)

	for _, n := range layerNames {
		if _, ok := m[n]; !ok {
			return layerSet{}, fmt.Errorf("per-layer metric %s was not computed", n)
		}
	}
	return layerSet{all: m, selected: selectMetrics(m, layerNames)}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// budget adds, for each operation type, its wall time next to the sum
// of its layers' times. The layers are the ones that block an
// operation, measured or replayed from outside the program:
//
//   - upload: the whole-file pre-hash (the generator's time plus SHA-256
//     at the replayed fingerprint rate), the four pipeline stages, the
//     RPCs outside the stages (CheckFile, RegisterFile, blob puts and
//     gets, and on a whole-file clone the HasChunks and RefChunks
//     fan-out), and sealing (and on a clone opening) the key state at
//     the replayed CP-ABE cost;
//   - download: blob RPCs, the GetChunks fan-out, opening the key
//     state, CAONT decryption at the replayed rate spread over the
//     client's worker pool, and the benchmark's own byte comparison;
//   - rekey: blob RPCs, opening and re-sealing the key state, one wind
//     of the owner's chain and, when active, one unwind.
//
// With one operation in flight each operation's layers come from the
// counters it alone moved. Ingest overlaps two uploads, so its layers
// come from each phase's totals, and a pipelined upload's stages
// overlap one another: its layer sum may exceed its wall time.
func (t *tracer) budget(r *run, rt rates, end sample, m map[string]metric) {
	workers := float64(min(max(2, runtime.GOMAXPROCS(0)), runtime.NumCPU()))
	secs := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

	// layers sums the layer times of n operations of one kind that
	// moved the counters in d.
	layers := func(k opKind, ops []opSample, d sample) time.Duration {
		var lay time.Duration
		for _, s := range ops {
			lay += s.pre + s.gen
			if s.op.pol != nil {
				lay += msDur(rt.abeEncryptMS[s.op.pol.CountLeaves()])
			}
			switch k {
			case opUpload:
				lay += secs(float64(s.op.bytes) / mb / rt.fpMBps)
			case opDownload:
				lay += secs(float64(s.op.bytes)/mb/rt.decryptMBps/workers) + msDur(rt.abeDecryptMS)
			case opRekeyLazy, opRekeyActive:
				lay += msDur(rt.abeDecryptMS) + msDur(rt.windMS)
				if k == opRekeyActive {
					lay += msDur(rt.unwindMS)
				}
			}
		}
		switch k {
		case opUpload:
			stages, _ := histSum(d.client, "pipeline_stage_latency")
			// Source reads inside the pipeline are already in the chunk
			// stage.
			for _, s := range ops {
				lay -= s.gen
			}
			lay += stages + rpcSum(d.client, "CheckFile", "RegisterFile", "PutBlob", "GetBlob")
			lay += time.Duration(d.client.Counters["upload_wholefile_hits"]) * msDur(rt.abeDecryptMS)
			if _, segs := histSum(d.client, "pipeline_stage_latency", `stage="upload"`); segs == 0 {
				lay += fanOut(d.client, "HasChunks", "RefChunks")
			}
		case opDownload:
			lay += rpcSum(d.client, "GetBlob") + fanOut(d.client, "GetChunks")
		default:
			lay += rpcSum(d.client, "GetBlob", "PutBlob")
		}
		return lay
	}

	var wallAll, sumAll float64
	for k := opKind(0); k < numOpKinds; k++ {
		var ops []opSample
		var wall, sum time.Duration
		for _, s := range t.perOp {
			if s.op.kind == k && !s.op.failed {
				ops = append(ops, s)
				wall += s.op.dur()
				if t.perOpFlag {
					sum += layers(k, []opSample{s}, s.delta)
				}
			}
		}
		if len(ops) == 0 {
			continue
		}
		if !t.perOpFlag {
			phase := t.marked.minus(t.begun)
			if k == opDownload {
				phase = end.minus(t.marked)
			}
			sum = layers(k, ops, phase)
		}
		name := "trace." + k.String()
		m[name+".wall_s"] = metric{wall.Seconds(), "s"}
		m[name+".layer_sum_s"] = metric{sum.Seconds(), "s"}
		m[name+".layer_ratio"] = metric{sum.Seconds() / wall.Seconds(), "ratio"}
		if t.perOpFlag {
			within := 0.0
			if d := sum.Seconds()/wall.Seconds() - 1; d <= budgetTolerance && d >= -budgetTolerance {
				within = 1
			}
			m[name+".within_tolerance"] = metric{within, "bool"}
		}
		wallAll += wall.Seconds()
		sumAll += sum.Seconds()
	}
	m["trace.wall_s"] = metric{wallAll, "s"}
	m["trace.layer_sum_s"] = metric{sumAll, "s"}
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// sortedUsers lists the deployment's users in a fixed order.
func sortedUsers(d *deployment) []string {
	ids := make([]string, 0, len(d.users))
	for id := range d.users {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
