package main

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Frozen sizing. No flag changes these; the self-test passes a smaller
// scale to runOnce directly.
const (
	fullRows   = 300_000
	fullTail   = 30_000 // the 10 % append of adaptive-seq
	setupCount = 3      // set-ups per untraced run; setup_s is their median
	countOps   = 2      // Workers=1 ops behind the exact count metrics
	// A traced run alternates this many untraced and traced blocks, so a
	// slow spell of the box lands on both sides of trace_overhead_pct.
	traceBlocks = 4
)

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	rows     int
	tail     int
	traceOut string // where the traced run writes its spans (default .bench_build/nodbperf/trace.json)

	// Set by the self-test only; no flag reaches these.
	maxOps     int  // ops per client and loop (0 = until the time is up)
	noProbes   bool // report the layer probes' metrics as unavailable without building them
	corruptOne bool // make one expected answer wrong after set-up
}

// env is where a run builds and keeps its files, all inside the checkout.
type env struct {
	root     string // directory of the nodb module
	buildDir string // root/.bench_build: binaries and the go build cache
	work     string // this run's data and logs; removed when the run ends
	nodbd    string
	daemons  []*daemon // every nodbd this run started
}

// findRoot walks up from the working directory to the nodb module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module nodb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("nodbperf: not inside the nodb module (no go.mod with `module nodb` above the working directory)")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, buildDir: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(filepath.Join(e.buildDir, "nodbperf"), 0o755); err != nil {
		return nil, err
	}
	e.work, err = os.MkdirTemp(filepath.Join(e.buildDir, "nodbperf"), "run-")
	if err != nil {
		return nil, err
	}
	e.nodbd = filepath.Join(e.buildDir, "nodbperf", "nodbd")
	if err := goBuild(e, root, e.nodbd, "./cmd/nodbd"); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.work) }

// sample is what one op reports.
type sample struct {
	sql      string
	err      error
	at       time.Duration // when the op ended, since its loop started
	lat      time.Duration
	ttfb     time.Duration // op start → first answer data in the client's hands
	aux      float64       // governor-accounted bytes per raw file byte at the end of an in-process op
	work     map[string]int64
	serverUs int64 // the reply's own stats.wall_us (HTTP workloads)
	rows     int64 // result rows drained (stream-export)
	first    time.Duration
	hot      []time.Duration
	refresh  time.Duration
}

// client is one closed-loop caller: it sends its next op only after the
// previous one completed.
type client struct {
	rng *rand.Rand
	br  *bufio.Reader // stream-export's line reader, kept across ops
}

// run is the state of one set-up: generated table, raw file, and for the
// HTTP workloads the nodbd child.
type run struct {
	cfg     config
	spec    *workloadSpec
	tab     *table
	csv     string
	workers int // engine Workers for in-process ops (0 = default)
	d       *daemon
	corrupt atomic.Bool
}

// setUp generates the inputs from the seed, starts what the workload
// needs and warms it up. Everything here is setup_s.
func setUp(e *env, cfg config, spec *workloadSpec) (*run, error) {
	r := &run{cfg: cfg, spec: spec}
	r.tab = genTable(cfg.seed, cfg.rows, cfg.tail)
	r.csv = filepath.Join(e.work, "wide.csv")
	if err := r.tab.writeCSV(r.csv); err != nil {
		return nil, err
	}
	if spec.http {
		d, err := startDaemon(e, r.csv, cfg.trace)
		if err != nil {
			return nil, err
		}
		r.d = d
	}
	// Untimed ops: the page cache, nodbd's columns and the client's
	// connections are warm before the first timed op.
	for i, c := 0, r.newClient(-1); i < spec.warmOps; i++ {
		if s := spec.op(r, c, nil); s.err != nil {
			r.tearDown()
			return nil, fmt.Errorf("warm-up op failed: %v\n  sql: %s", s.err, s.sql)
		}
	}
	return r, nil
}

func (r *run) tearDown() {
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
}

// newClient gives each client its own stream of the seed, so the ops a
// client sends do not depend on how the clients interleave.
func (r *run) newClient(id int) *client {
	return &client{rng: newRNG(r.cfg.seed, uint64(1000+id))}
}

// clients makes the workload's closed-loop clients; first tells one set
// of clients from another, so that no two send the same statements.
func (r *run) clients(first int) []*client {
	cs := make([]*client, r.spec.clients)
	for i := range cs {
		cs[i] = r.newClient(first + i)
	}
	return cs
}

// loop runs the clients for d and appends every sample to out, per client
// in the order sent. at counts from origin.
func (r *run) loop(d time.Duration, tr *tracer, cs []*client, out [][]sample, origin time.Time) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; time.Now().Before(deadline) && (r.cfg.maxOps == 0 || n < r.cfg.maxOps); n++ {
				s := r.spec.op(r, c, tr)
				s.at = time.Since(origin)
				out[i] = append(out[i], s)
			}
		}()
	}
	wg.Wait()
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// info is the environment record printed beside the result.
type info struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Commit     string            `json:"git_commit"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Rows       int               `json:"rows"`
	TailRows   int               `json:"tail_rows"`
	RawBytes   int64             `json:"raw_bytes"`
	Clients    int               `json:"clients"`
	Ops        int               `json:"ops"`
	TailPct    float64           `json:"op_tail_percentile"`
	Samples    map[string]int    `json:"samples"` // sample count behind each percentile metric
	NodbdArgv  []string          `json:"nodbd_argv,omitempty"`
	Failures   []string          `json:"failures,omitempty"`
	Unavail    map[string]string `json:"unavailable,omitempty"` // probe → build or run error
}

// runOnce measures one workload once, in this process.
func runOnce(cfg config) (*result, *info, error) {
	spec := findWorkload(cfg.workload)
	if spec == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	e, err := newEnv()
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	return runIn(e, cfg, spec)
}

func runIn(e *env, cfg config, spec *workloadSpec) (*result, *info, error) {
	var err error
	inf := &info{
		Workload: spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Commit: gitCommit(e.root), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Rows: cfg.rows, TailRows: cfg.tail,
		Clients: spec.clients, TailPct: spec.tailPct, Samples: map[string]int{},
	}

	// Set up several times and report the median: one set-up is a single
	// sample of process start and first-touch costs.
	setups := setupCount
	if cfg.trace {
		setups = 1 // the traced run reports no setup_s
	}
	var r *run
	var setupS []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.tearDown()
		}
		t0 := time.Now()
		if r, err = setUp(e, cfg, spec); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.tearDown()
	r.corrupt.Store(cfg.corruptOne)
	inf.RawBytes = r.tab.baseBytes
	if r.d != nil {
		inf.NodbdArgv = r.d.argv
	}

	res := &result{Metrics: map[string]metric{}}
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		samples := make([][]sample, spec.clients)
		r.loop(total, nil, r.clients(0), samples, time.Now())
		m := summarize(r, samples)
		m.fail(res, inf)
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		m.endToEnd(res, inf)
		return res, inf, nil
	}

	// Traced run: the same ops in alternating blocks without and with
	// spans, so the overhead of tracing is measured inside one process.
	before, err := r.snapshotProc()
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	plainC, tracedC := r.clients(0), r.clients(spec.clients)
	plainS, tracedS := make([][]sample, spec.clients), make([][]sample, spec.clients)
	for b, origin := 0, time.Now(); b < traceBlocks; b++ {
		r.loop(total/(2*traceBlocks), nil, plainC, plainS, origin)
		r.loop(total/(2*traceBlocks), tr, tracedC, tracedS, origin)
	}
	plain, traced := summarize(r, plainS), summarize(r, tracedS)
	after, err := r.snapshotProc()
	if err != nil {
		return nil, nil, err
	}
	plain.fail(res, inf)
	traced.fail(res, inf)
	work, err := r.countWork(before, after, res.Attempted)
	if err != nil {
		return nil, nil, err
	}
	traced.perLayer(res, inf, plain, work, before, after)
	r.tearDown()
	if err := runProbes(e, r, res, inf, tr); err != nil {
		return nil, nil, err
	}
	self := selfTimes(tr.spans)
	for _, name := range slices.Sorted(maps.Keys(self)) {
		fmt.Fprintf(os.Stderr, "nodbperf: self time %-24s %12.3f ms\n", name, ms(self[name]))
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(e.buildDir, "nodbperf", "trace.json")
	}
	return res, inf, writeTrace(cfg.traceOut, tr.spans)
}
