package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90Allowed reports whether a p90 over n samples has at least ten
// samples beyond it.
func p90Allowed(n int) bool { return n >= 100 }

// busy returns the length of the union of the operations' time windows
// and the process CPU time spent within that union. Operations that
// overlap (ingest's two uploads) share one window, so nothing is
// counted twice.
func busy(ops []op) (wall, cpu time.Duration) {
	if len(ops) == 0 {
		return 0, 0
	}
	s := append([]op(nil), ops...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	cur := s[0]
	add := func() {
		wall += cur.end.Sub(cur.start)
		cpu += cur.cpuEnd - cur.cpuStart
	}
	for _, o := range s[1:] {
		if o.start.After(cur.end) {
			add()
			cur = o
			continue
		}
		if o.end.After(cur.end) {
			cur.end, cur.cpuEnd = o.end, o.cpuEnd
		}
	}
	add()
	return wall, cpu
}

// processCPU returns the CPU time, user and system, the whole process
// has used so far: every client, server and key-manager goroutine, and
// the garbage collector. The kernel leaves out time the host stole
// from the virtual CPUs, which is why the end-to-end metrics count CPU
// time rather than wall time (see README.md).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rpcCount returns how many calls c has made to the key manager and
// the servers, from the latency histograms in its metrics registry.
// Each client has a registry of its own, so the difference across one
// operation counts that operation's calls even when another client's
// operation overlaps it.
func rpcCount(c *client.Client) uint64 {
	_, n := histSum(c.Metrics().Snapshot(), "rpc_latency")
	return n
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// environment describes the machine and the deployment a result was
// measured on; it is printed beside every result.
func environment(dir string) [][2]string {
	return [][2]string{
		{"nproc", strconv.Itoa(runtime.NumCPU())},
		{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"go", runtime.Version()},
		{"cpu", cpuModel()},
		{"fs", fsType(dir)},
		{"fsync", "on"},
		{"shards", strconv.Itoa(dataShards)},
		{"scheme", benchScheme.String()},
		{"chunking", "rabin 2/8/16 KB"},
		{"oprf_bits", strconv.Itoa(oprfBits)},
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
