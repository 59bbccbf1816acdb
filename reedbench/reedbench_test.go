package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the result line must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// reportNames are the per-operation metrics each workload prints as
// "metric <name> <value> <unit>" lines, beside the result line.
var reportNames = map[string][]string{
	"ingest": {"upload_MBps", "upload_ms_p50", "upload_cpu_ms", "upload_rpcs", "download_MBps", "download_ms_p50", "download_cpu_ms", "download_rpcs"},
	"backup": {"upload_MBps", "upload_ms_p50", "upload_cpu_ms", "upload_rpcs", "download_MBps", "download_ms_p50", "download_cpu_ms", "download_rpcs"},
	"rekey":  {"rekey_lazy_ms_p50", "rekey_lazy_cpu_ms", "rekey_lazy_rpcs", "rekey_active_ms_p50", "rekey_active_cpu_ms", "rekey_active_rpcs"},
}

var commonReport = []string{"throughput_MBps", "primary_cpu_ms", "secondary_cpu_ms", "stored_bytes_per_user_byte", "setup_s", "setup_wall_s", "peak_rss_MB", "error_rate"}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that the result line carries exactly the metrics BENCHMARK.json
// names, with its units, and that the report prints the rest.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.3, trace: traced, tiny: true, root: t.TempDir()}
			var out bytes.Buffer
			res, err := execute(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: result %+v\n%s", w.Name, traced, res, out.String())
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced {
				continue
			}
			for _, n := range append(reportNames[w.Name], commonReport...) {
				if !strings.Contains(out.String(), "\nmetric "+n+" ") {
					t.Errorf("%s: report lacks metric %s", w.Name, n)
				}
			}
			for _, m := range bf.EndToEnd {
				if res.Metrics[m.Name].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// plan is a workload's operation sequence up to a fixed length: what
// each step touches and how many bytes, independent of timing.
type plan struct {
	ops   []string
	bytes []int64
	first []byte // the first bytes of the first file
}

func makePlan(seed uint64) plan {
	var p plan
	add := func(name string, spec fileSpec) {
		p.ops = append(p.ops, name)
		p.bytes = append(p.bytes, spec.size)
	}
	for i := 0; i < 4; i++ {
		for u := 0; u < 2; u++ {
			add("ingest", ingestSpec(false, u, i))
		}
	}
	shape := backupShapeFor(false)
	g, sets, _ := backupPlan(seed, shape)
	for day := 1; day <= 3; day++ {
		backupDay(seed, day, shape, g, &sets)
	}
	for u := range sets {
		for _, spec := range sets[u] {
			add("backup", spec)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	users := rekeyUserIDs(false)
	for i := 0; i < 8; i++ {
		st := rekeyPlan(rng, i, len(rekeySizes(false)), users)
		p.ops = append(p.ops, strings.Join(st.members, ",")+"|"+st.kept+"|"+st.revoked)
	}
	buf := make([]byte, 4096)
	r := newContent(seed).reader(sets[0][0], nil)
	if _, err := r.Read(buf); err != nil {
		panic(err)
	}
	p.first = buf
	return p
}

// TestSameSeedSamePlan checks that a seed fixes the operation sequence,
// the byte counts and the bytes.
func TestSameSeedSamePlan(t *testing.T) {
	a, b := makePlan(42), makePlan(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different plans")
	}
}

// TestOtherSeedSameShape checks that another seed changes the bytes and
// choices but keeps the shape: the same number of operations and the
// same multiset of file sizes.
func TestOtherSeedSameShape(t *testing.T) {
	a, b := makePlan(1), makePlan(2)
	if bytes.Equal(a.first, b.first) {
		t.Fatal("two seeds gave the same bytes")
	}
	if reflect.DeepEqual(a.ops, b.ops) {
		t.Fatal("two seeds gave the same choices")
	}
	if len(a.bytes) != len(b.bytes) {
		t.Fatalf("plan lengths %d and %d differ", len(a.bytes), len(b.bytes))
	}
	var sa, sb int64
	for i := range a.bytes {
		sa += a.bytes[i]
		sb += b.bytes[i]
	}
	if sa != sb {
		t.Fatalf("total bytes %d and %d differ", sa, sb)
	}
}

// TestReaderSeekAndVerify checks the generator's random access and the
// restore comparison.
func TestReaderSeekAndVerify(t *testing.T) {
	c := newContent(3)
	g := &ids{}
	spec := newSpec(g, 3*blockSize+123)
	whole := make([]byte, spec.size)
	r := c.reader(spec, nil)
	if n, _ := r.Read(whole); n != len(whole) {
		t.Fatalf("read %d of %d bytes", n, len(whole))
	}
	if _, err := r.Seek(blockSize+7, 0); err != nil {
		t.Fatal(err)
	}
	part := make([]byte, 100)
	if _, err := r.Read(part); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, whole[blockSize+7:blockSize+107]) {
		t.Fatal("seek then read disagrees with a whole read")
	}
	v := c.verifier(spec, nil)
	_, _ = v.Write(whole)
	if err := v.check(); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), whole...)
	bad[len(bad)-1] ^= 1
	v = c.verifier(spec, nil)
	_, _ = v.Write(bad)
	if v.check() == nil {
		t.Fatal("a flipped byte went unnoticed")
	}
}
