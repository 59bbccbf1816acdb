// Command reedbench is the repository's end-to-end benchmark. It boots
// a REED deployment in its own process (one key manager, two data
// shards and a key-store server over fsynced disk:// stores), drives it
// with one seeded closed-loop workload, checks every restored byte, and
// prints named metrics. The last line of its output is one JSON object:
// the end-to-end metrics of BENCHMARK.json with -trace 0, the per-layer
// metrics with -trace 1. See README.md.
//
//	go run . -workload backup -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/policy"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every file and count so a run takes about a second;
	// the fast tests use it.
	tiny bool
	// root holds the run's store directories and trace output.
	root string
}

// opKind is a timed operation type.
type opKind int

const (
	opUpload opKind = iota
	opDownload
	opRekeyLazy
	opRekeyActive
	numOpKinds
)

var opNames = [numOpKinds]string{"upload", "download", "rekey_lazy", "rekey_active"}

func (k opKind) String() string { return opNames[k] }

// op is one timed operation.
type op struct {
	kind       opKind
	path       string
	start, end time.Time
	// cpuStart and cpuEnd are the process's CPU time at start and end.
	cpuStart, cpuEnd time.Duration
	// rpcs counts the calls the operation's client made to the key
	// manager and the servers.
	rpcs   uint64
	bytes  int64
	spec   fileSpec
	pol    *policy.Node // the policy the operation sealed under, if any
	failed bool
}

func (o op) dur() time.Duration { return o.end.Sub(o.start) }

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one invocation shares with its workload.
type run struct {
	ctx  context.Context
	cfg  config
	d    *deployment
	data *content

	mu        sync.Mutex
	ops       []op
	attempted int
	failed    int
	wrong     bool // a restore returned wrong bytes
	failures  []string

	// uploaded counts logical bytes uploaded since the stores were
	// created, set-up included: the base of stored_bytes_per_user_byte.
	uploaded int64
	// stored and storedBase are the bytes on disk and the bytes
	// uploaded when the workload measured them; zero means at the end.
	stored, storedBase int64
	// counts records the workload's operation counts by name.
	counts map[string]int
}

// record adds a finished timed operation. err is the operation's error;
// wrongBytes marks a restore whose bytes differ from the source.
func (r *run) record(o op, err error, wrongBytes bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	o.failed = err != nil || wrongBytes
	r.ops = append(r.ops, o)
	r.attempted++
	r.noteLocked(o.kind.String()+" "+o.path, err, wrongBytes)
}

// check records an untimed correctness check.
func (r *run) check(what string, err error, wrongBytes bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.noteLocked(what, err, wrongBytes)
}

func (r *run) noteLocked(what string, err error, wrongBytes bool) {
	if wrongBytes {
		r.wrong = true
		if err == nil {
			err = fmt.Errorf("wrong bytes")
		}
	}
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *run) addUploaded(n int64) {
	r.mu.Lock()
	r.uploaded += n
	r.mu.Unlock()
}

// measureStored records the bytes on disk and the bytes uploaded now.
// It measures at rest: a running server is flushed first (open
// container sealed, WAL checkpointed), as its shutdown would. Backup
// calls it at a fixed point so the base does not depend on how many
// days the timed phase fitted in.
func (r *run) measureStored() error {
	if !r.d.closed {
		for _, s := range r.d.servers {
			if err := s.Flush(r.ctx); err != nil {
				return err
			}
		}
	}
	stored, err := r.d.storedBytes()
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.stored, r.storedBase = stored, r.uploaded
	r.mu.Unlock()
	return nil
}

func (r *run) count(name string, n int) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// timedOps returns the recorded operations of one kind.
func (r *run) timedOps(k opKind) []op {
	var out []op
	for _, o := range r.ops {
		if o.kind == k {
			out = append(out, o)
		}
	}
	return out
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, backup or rekey")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".reedbench", "directory for stores and trace output")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: reedbench -workload ingest|backup|rekey -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}

	res, err := execute(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reedbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setupBoots is how many times set-up boots the deployment; setup_s
// takes the median.
const setupBoots = 11

// pass is one boot, set-up and timed phase.
type pass struct {
	r      *run
	e2e    map[string]metric
	layers layerSet // traced passes only
}

// runPass boots a deployment, runs the workload's set-up and timed
// phase, and measures them. A traced pass also computes the per-layer
// metrics before the deployment shuts down.
func runPass(ctx context.Context, cfg config, out io.Writer, traced bool) (*pass, error) {
	w := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	boots := setupBoots
	if cfg.tiny {
		boots = 1
	}
	userIDs, owners := w.users(cfg)
	d, bootTime, err := bootTimed(ctx, runDir, boots, userIDs, owners, tr)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	defer d.close()

	r := &run{ctx: ctx, cfg: cfg, d: d, data: newContent(cfg.seed), counts: make(map[string]int)}
	preStart, preCPU := time.Now(), processCPU()
	fx, err := w.setup(r)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer fx.close()
	setup := cost{bootTime.wall + time.Since(preStart), bootTime.cpu + processCPU() - preCPU}

	if tr != nil {
		tr.begin(d, fx.clients(), w.perOp())
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	if err := w.timed(r, fx, deadline); err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	p := &pass{r: r}
	if tr != nil {
		if p.layers, err = tr.finish(r); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	fx.close()
	d.close()
	if r.storedBase == 0 {
		if err := r.measureStored(); err != nil {
			return nil, err
		}
	}
	p.e2e = endToEnd(r, setup)
	if traced || !cfg.trace {
		env := environment(runDir)
		env = append(env, [2]string{"workload", cfg.workload}, [2]string{"seed", fmt.Sprint(cfg.seed)},
			[2]string{"seconds", fmt.Sprint(cfg.seconds)}, [2]string{"trace", fmt.Sprint(cfg.trace)})
		for _, kv := range env {
			fmt.Fprintf(out, "env %s=%s\n", kv[0], kv[1])
		}
	}
	return p, nil
}

// execute runs one invocation and returns its result line. Human-
// readable lines (environment, operation counts, every metric with its
// unit) go to out. A traced invocation runs an untraced pass first and
// reports the traced pass's end-to-end metrics minus the untraced
// pass's: the cost of tracing.
func execute(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	var passes []*pass
	if cfg.trace {
		base, err := runPass(ctx, cfg, out, false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, base)
	}
	p, err := runPass(ctx, cfg, out, cfg.trace)
	if err != nil {
		return nil, err
	}
	passes = append(passes, p)

	res := &result{Correct: true}
	for _, ps := range passes {
		res.Attempted += ps.r.attempted
		res.Failed += ps.r.failed
		res.Correct = res.Correct && !ps.r.wrong && ps.r.failed == 0
		for _, f := range ps.r.failures {
			fmt.Fprintln(out, "failure", f)
		}
	}
	names := make([]string, 0, len(p.r.counts))
	for n := range p.r.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "count %s=%d\n", n, p.r.counts[n])
	}
	printMetrics(out, "metric", p.e2e)
	if cfg.trace {
		overhead := make(map[string]metric)
		for n, m := range p.e2e {
			if b, ok := passes[0].e2e[n]; ok {
				overhead[n] = metric{m.Value - b.Value, m.Unit}
			}
		}
		printMetrics(out, "overhead", overhead)
		printMetrics(out, "layer", p.layers.all)
		res.Metrics = p.layers.selected
	} else {
		res.Metrics = selectMetrics(p.e2e, endToEndNames)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	return res, nil
}

func printMetrics(out io.Writer, prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %s %.6g %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}

// selectMetrics returns the named subset of ms.
func selectMetrics(ms map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		if m, ok := ms[n]; ok {
			out[n] = m
		}
	}
	return out
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg config) string {
	return filepath.Join(cfg.root, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
