package main

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// summary is the samples of one loop, reduced.
type summary struct {
	r         *run
	attempted int
	failed    []sample
	lat       []float64 // ms, correct ops only
	ttfb      []float64
	overhead  []float64 // client latency − the reply's own wall_us, in µs
	opsPerS   float64
	rowsPerS  float64
	aux       float64 // governor-accounted bytes per raw byte
	first     []float64
	hot       []float64
	refresh   []float64
}

// rateSlices is how many equal time slices of a loop ops_per_s is the
// median over: a burst of interference from outside then moves one slice,
// not the figure.
const rateSlices = 10

func summarize(r *run, perClient [][]sample) *summary {
	m := &summary{r: r}
	var aux []float64
	var span time.Duration
	for _, samples := range perClient {
		if n := len(samples); n > 0 {
			span = max(span, samples[n-1].at)
		}
	}
	// A closed-loop client's rate is its ops over the time it spent
	// waiting for them; the time the oracle took in between is not the
	// system's. Per slice, the clients' rates add up.
	var okOps, rows int64
	var rate [rateSlices]float64
	for _, samples := range perClient {
		var ok [rateSlices]float64
		var busy [rateSlices]time.Duration
		for _, s := range samples {
			m.attempted++
			k := min(int(s.at*rateSlices/(span+1)), rateSlices-1)
			busy[k] += s.lat
			if s.err != nil {
				m.failed = append(m.failed, s)
				continue
			}
			ok[k]++
			okOps++
			rows += s.rows
			m.lat = append(m.lat, ms(s.lat))
			m.ttfb = append(m.ttfb, ms(s.ttfb))
			if r.spec.http {
				m.overhead = append(m.overhead, float64(s.lat.Microseconds()-s.serverUs))
			} else {
				aux = append(aux, s.aux)
			}
			if s.first > 0 {
				m.first = append(m.first, ms(s.first))
				m.hot = append(m.hot, msAll(s.hot)...)
				m.refresh = append(m.refresh, ms(s.refresh))
			}
		}
		for k := range rate {
			if busy[k] > 0 {
				rate[k] += ok[k] / busy[k].Seconds()
			}
		}
	}
	var rates []float64 // of the slices in which an op ended
	for _, v := range rate {
		if v > 0 {
			rates = append(rates, v)
		}
	}
	m.opsPerS = median(rates)
	if okOps > 0 {
		m.rowsPerS = m.opsPerS * float64(rows) / float64(okOps)
	}
	m.aux = median(aux)
	if r.d != nil {
		if st, err := r.d.stats(); err != nil {
			m.failed = append(m.failed, sample{sql: "GET /v1/stats", err: err})
		} else {
			m.aux = float64(st.MemBytes) / float64(r.tab.baseBytes)
			if st.Server.Rejected+st.Server.Failed > 0 {
				m.failed = append(m.failed, sample{sql: "GET /v1/stats",
					err: fmt.Errorf("nodbd counted %d rejected and %d failed queries", st.Server.Rejected, st.Server.Failed)})
			}
		}
	}
	return m
}

// fail adds this loop's attempts and failures to the result. Every failed
// or wrong op is printed with its SQL; the run's seed reproduces it.
func (m *summary) fail(res *result, inf *info) {
	res.Attempted += m.attempted
	res.Failed += len(m.failed)
	res.Correct = res.Failed == 0
	inf.Ops += m.attempted
	for _, s := range m.failed {
		msg := fmt.Sprintf("seed %d: %v\n  sql: %s", m.r.cfg.seed, s.err, s.sql)
		fmt.Fprintln(os.Stderr, "nodbperf: FAILED op:", msg)
		if len(inf.Failures) < 20 {
			inf.Failures = append(inf.Failures, msg)
		}
	}
}

func (m *summary) endToEnd(res *result, inf *info) {
	res.Metrics["op_p50_ms"] = metric{median(m.lat), "ms"}
	res.Metrics["op_tail_ms"] = metric{percentile(m.lat, m.r.spec.tailPct), "ms"}
	res.Metrics["ops_per_s"] = metric{m.opsPerS, "1/s"}
	res.Metrics["ttfb_ms"] = metric{median(m.ttfb), "ms"}
	res.Metrics["aux_bytes_per_raw_byte"] = metric{m.aux, "ratio"}
	inf.Samples["op_p50_ms"] = len(m.lat)
	inf.Samples["op_tail_ms"] = len(m.lat)
	inf.Samples["ttfb_ms"] = len(m.ttfb)
}

// procSnapshot is the cumulative resource use of the process under test:
// the harness itself for the in-process workloads, nodbd for the others.
type procSnapshot struct {
	cpuS      float64
	peakRSSMB float64
	mallocs   float64
	gcPauseMs float64
	work      map[string]int64 // nodbd's /v1/stats work counters
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times: 100 on every
// Linux architecture Go runs on.
const clockTick = 100

func (r *run) snapshotProc() (procSnapshot, error) {
	var p procSnapshot
	pid := os.Getpid()
	if r.d != nil {
		pid = r.d.cmd.Process.Pid
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	p.cpuS = (ut + st) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return p, err
	}
	if m := regexp.MustCompile(`VmHWM:\s+(\d+) kB`).FindSubmatch(status); m != nil {
		kb, _ := strconv.ParseFloat(string(m[1]), 64)
		p.peakRSSMB = kb / 1024
	}
	if r.d == nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.mallocs, p.gcPauseMs = float64(ms.Mallocs), float64(ms.PauseTotalNs)/1e6
		return p, nil
	}
	st2, err := r.d.stats()
	if err != nil {
		return p, err
	}
	p.work = st2.Work
	p.mallocs, p.gcPauseMs, err = r.d.memStats()
	return p, err
}

// memStats reads nodbd's runtime.MemStats from its pprof listener, which
// the traced run turns on; it is a separate port and serves no queries.
// The dump keeps only the last 256 GC pauses, so past that many
// collections the total is their mean times the collection count.
func (d *daemon) memStats() (mallocs, gcPauseMs float64, err error) {
	resp, err := d.client.Get(d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var numGC, pauseSum, pauses float64
	found := 0
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, _ = strconv.ParseFloat(v, 64)
			found++
		}
		if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			numGC, _ = strconv.ParseFloat(v, 64)
			found++
		}
		if v, ok := strings.CutPrefix(line, "# PauseNs = ["); ok {
			for _, f := range strings.Fields(strings.TrimSuffix(v, "]")) {
				if ns, _ := strconv.ParseFloat(f, 64); ns > 0 {
					pauseSum += ns
					pauses++
				}
			}
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 3 {
		return 0, 0, fmt.Errorf("pprof heap dump has no Mallocs, NumGC and PauseNs lines")
	}
	if pauses > 0 {
		gcPauseMs = pauseSum / pauses * numGC / 1e6
	}
	return mallocs, gcPauseMs, nil
}

// countWork returns the engine's work counters per op. For the in-process
// workloads these come from extra ops at Workers=1, where they repeat
// exactly; for the HTTP workloads from nodbd's counters across the loops.
func (r *run) countWork(before, after procSnapshot, ops int) (map[string]float64, error) {
	out := map[string]float64{}
	if r.d != nil {
		for k, v := range after.work {
			out[k] = float64(v-before.work[k]) / float64(max(ops, 1))
		}
		return out, nil
	}
	r.workers = 1
	defer func() { r.workers = 0 }()
	c := r.newClient(-2)
	for i := 0; i < countOps; i++ {
		s := r.spec.op(r, c, nil)
		if s.err != nil {
			return nil, fmt.Errorf("count op failed: %v\n  sql: %s", s.err, s.sql)
		}
		for k, v := range s.work {
			out[k] += float64(v) / countOps
		}
	}
	return out, nil
}

func ratio(hit, miss float64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

// perLayer fills in the per-layer metrics the workload's own ops give;
// the layer probes add theirs afterwards. m is the traced loop, plain the
// untraced loop before it.
func (m *summary) perLayer(res *result, inf *info, plain *summary, work map[string]float64, before, after procSnapshot) {
	all := append(append([]float64(nil), plain.lat...), m.lat...)
	ops := float64(max(len(all), 1))
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	set("trace_overhead_pct", 100*(median(m.lat)-median(plain.lat))/median(plain.lat), "%")
	set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	set("server.op_p99_ms", percentile(all, 99), "ms")
	set("server.http_overhead_us", median(append(plain.overhead, m.overhead...)), "us")
	inf.Samples["server.op_p99_ms"] = len(all)

	// Metrics of one workload only; the others report 0.
	set("seq_first_query_ms", median(append(plain.first, m.first...)), "ms")
	set("seq_hot_query_ms", median(append(plain.hot, m.hot...)), "ms")
	set("seq_refresh_ms", median(append(plain.refresh, m.refresh...)), "ms")
	set("rows_per_s", (plain.rowsPerS+m.rowsPerS)/2, "1/s")

	set("core.raw_bytes_per_op", work["RawBytesRead"], "B")
	set("core.rows_tokenized_per_op", work["RowsTokenized"], "count")
	set("core.values_parsed_per_op", work["ValuesParsed"], "count")
	set("core.portions_skipped_per_op", work["PortionsSkipped"], "count")
	set("core.posmap_hit_ratio", ratio(work["PosMapHits"], work["PosMapMisses"]), "ratio")
	// The engine counts a miss per column load and no hit when a warm
	// query loads nothing, so the hit share is taken over statements.
	set("core.column_cache_hit_ratio", 1-work["CacheMisses"]/float64(m.r.spec.queries), "ratio")

	set("proc.peak_rss_mb", after.peakRSSMB, "MB")
	set("proc.cpu_s_per_op", (after.cpuS-before.cpuS)/ops, "s")
	set("proc.allocs_per_op", (after.mallocs-before.mallocs)/ops, "count")
	set("proc.gc_pause_ms_total", after.gcPauseMs-before.gcPauseMs, "ms")
}
