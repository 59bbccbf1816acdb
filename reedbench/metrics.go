package main

import (
	"time"
)

// endToEndNames are the end-to-end metrics every workload reports in
// its result line, in BENCHMARK.json order. Each workload maps its two
// timed operation types onto primary and secondary (see README.md);
// the per-type metrics the workload produces, wall-clock ones
// included, are printed beside them.
var endToEndNames = []string{
	"primary_rpcs",
	"secondary_rpcs",
	"stored_bytes_per_user_byte",
	"peak_rss_MB",
	"setup_s",
}

const mb = 1 << 20

// endToEnd computes every end-to-end metric of a run.
func endToEnd(r *run, setup cost) map[string]metric {
	w := workloads[r.cfg.workload]
	m := make(map[string]metric)
	var moved []op
	var movedBytes int64
	for k := opKind(0); k < numOpKinds; k++ {
		ops := r.timedOps(k)
		if len(ops) == 0 {
			continue
		}
		var lat []float64
		var bytes int64
		var rpcs uint64
		for _, o := range ops {
			rpcs += o.rpcs
			if o.failed {
				continue
			}
			lat = append(lat, float64(o.dur())/float64(time.Millisecond))
			bytes += o.bytes
		}
		for _, mk := range w.moved() {
			if mk == k {
				moved = append(moved, ops...)
				movedBytes += bytes
			}
		}
		wall, cpu := busy(ops)
		name := k.String()
		m[name+"_samples"] = metric{float64(len(lat)), "count"}
		m[name+"_ms_p50"] = metric{median(lat), "ms"}
		m[name+"_cpu_ms"] = metric{float64(cpu) / float64(time.Millisecond) / float64(len(ops)), "ms"}
		m[name+"_rpcs"] = metric{float64(rpcs) / float64(len(ops)), "count"}
		if p90Allowed(len(lat)) {
			m[name+"_ms_p90"] = metric{quantile(lat, 0.9), "ms"}
		}
		if k == opUpload || k == opDownload {
			m[name+"_MBps"] = metric{float64(bytes) / mb / wall.Seconds(), "MB/s"}
		}
	}
	if len(moved) > 0 {
		wall, _ := busy(moved)
		m["throughput_MBps"] = metric{float64(movedBytes) / mb / wall.Seconds(), "MB/s"}
	}
	primary, secondary := w.classes()
	m["primary_ms_p50"] = metric{m[primary.String()+"_ms_p50"].Value, "ms"}
	m["secondary_ms_p50"] = metric{m[secondary.String()+"_ms_p50"].Value, "ms"}
	m["primary_cpu_ms"] = metric{m[primary.String()+"_cpu_ms"].Value, "ms"}
	m["secondary_cpu_ms"] = metric{m[secondary.String()+"_cpu_ms"].Value, "ms"}
	m["primary_rpcs"] = metric{m[primary.String()+"_rpcs"].Value, "count"}
	m["secondary_rpcs"] = metric{m[secondary.String()+"_rpcs"].Value, "count"}
	if r.storedBase > 0 {
		m["stored_bytes_per_user_byte"] = metric{float64(r.stored) / float64(r.storedBase), "ratio"}
	}
	m["peak_rss_MB"] = metric{peakRSSMB(), "MB"}
	m["setup_s"] = metric{setup.cpu.Seconds(), "s"}
	m["setup_wall_s"] = metric{setup.wall.Seconds(), "s"}
	if r.attempted > 0 {
		m["error_rate"] = metric{float64(r.failed) / float64(r.attempted), "ratio"}
	}
	return m
}
