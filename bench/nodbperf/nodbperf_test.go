package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tiny is every workload shrunk to 2 000 rows and a handful of ops. The
// layer probes are not built: they need the layerprobe tag.
func tiny(workload string, seed uint64, trace bool) config {
	return config{workload: workload, seed: seed, seconds: 5, trace: trace,
		rows: 2000, tail: 200, maxOps: 2, noProbes: true}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// BENCHMARK.json repeats the tables in the code; they must not drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench/nodbperf" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(!d.lowerBest) || m.Bound != d.bound || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	var defs []metricDef
	defs = append(defs, opLayerDefs...)
	for _, p := range probeDefs {
		defs = append(defs, p.metrics...)
	}
	if len(bj.PerLayer) != len(defs) || len(defs) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bj.PerLayer), len(defs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		d := defs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higherBest) {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer[%d]: bad or repeated name or unit: %+v", i, m)
		}
		seen[m.Name] = true
	}
}

func checkMetrics(t *testing.T, res *result, want map[string]string, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("run printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must never be 0", name, m.Value)
		}
	}
}

// Every workload runs at a tiny scale, untraced and traced, on two seeds;
// every metric BENCHMARK.json names comes out; every nodbd is reaped and
// the data is gone afterwards.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	for i := range workloads {
		spec := &workloads[i]
		res, inf, err := runIn(e, tiny(spec.name, 7, false), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s seed 7: %+v\n%v", spec.name, res, inf.Failures)
		}
		checkMetrics(t, res, e2e, true)
		if spec.http && len(inf.NodbdArgv) == 0 {
			t.Errorf("%s: nodbd's argv not recorded", spec.name)
		}

		cfg := tiny(spec.name, 8, true)
		cfg.traceOut = filepath.Join(e.work, "trace.json")
		res, inf, err = runIn(e, cfg, spec)
		if err != nil {
			t.Fatalf("%s traced: %v", spec.name, err)
		}
		if !res.Correct {
			t.Errorf("%s seed 8: %+v\n%v", spec.name, res, inf.Failures)
		}
		checkMetrics(t, res, layer, false)
		var tr struct{ Spans []span }
		if b, err := os.ReadFile(cfg.traceOut); err != nil || json.Unmarshal(b, &tr) != nil || len(tr.Spans) == 0 {
			t.Errorf("%s: no spans in trace.json (%v)", spec.name, err)
		}
		if self := selfTimes(tr.Spans); self["op"] < 0 {
			t.Errorf("%s: op self time %v < 0: children overlap", spec.name, self["op"])
		}
	}
	for _, d := range e.daemons {
		if d.cmd.ProcessState == nil {
			t.Errorf("nodbd pid %d was not reaped", d.cmd.Process.Pid)
		}
	}
	e.close()
	if _, err := os.Stat(e.work); !os.IsNotExist(err) {
		t.Errorf("run data %s not removed", e.work)
	}
}

// A wrong expected answer must show as a failed op and a non-zero exit,
// and the nodbd of the failed run must still be reaped.
func TestCorrectnessGate(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for i := range workloads {
		spec := &workloads[i]
		cfg := tiny(spec.name, 3, true)
		cfg.corruptOne = true
		res, inf, err := runIn(e, cfg, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if res.Correct || res.Failed != 1 || res.Metrics["error_rate"].Value <= 0 || len(inf.Failures) != 1 {
			t.Errorf("%s: corrupted expectation not reported: %+v %v", spec.name, res, inf.Failures)
		}
	}
	for _, d := range e.daemons {
		if d.cmd.ProcessState == nil {
			t.Errorf("nodbd pid %d was not reaped", d.cmd.Process.Pid)
		}
	}
	cfg := tiny("cold-csv", 3, false)
	cfg.corruptOne = true
	if code := runMain(cfg); code == 0 {
		t.Error("runMain exited 0 with a wrong answer")
	}
}

// A nodbd that dies at start-up is reported at once and reaped.
func TestDaemonFailureIsReaped(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if _, err := startDaemon(e, filepath.Join(e.work, "missing.csv"), false); err == nil {
		t.Fatal("startDaemon succeeded on a missing file")
	}
	if len(e.daemons) != 1 || e.daemons[0].cmd.ProcessState == nil {
		t.Error("failed nodbd was not reaped")
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50 []float64) report {
		wr := &workloadReport{EndToEnd: map[string]*e2eStats{}}
		for _, d := range endToEnd {
			v := []float64{1, 1, 1}
			if d.name == "op_p50_ms" {
				v = p50
			}
			wr.EndToEnd[d.name] = &e2eStats{Unit: d.unit, Values: v, Median: median(v), Spread: spread(v)}
		}
		return report{Workloads: map[string]*workloadReport{"cold-csv": wr}}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		b, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk([]float64{100, 101, 102}))
	for _, c := range []struct {
		name    string
		p50     []float64
		verdict string
		code    int
	}{
		{"same", []float64{101, 102, 103}, "ok", 0},
		{"slower", []float64{130, 131, 132}, "worse", 1},
		{"noisy", []float64{70, 101, 150}, "unresolved", 0},
	} {
		var out bytes.Buffer
		code := compareMain([]string{base, write(c.name+".json", mk(c.p50))}, &out)
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "op_p50_ms") {
				row = line
			}
		}
		if code != c.code || !strings.HasSuffix(strings.TrimSpace(row), c.verdict) {
			t.Errorf("%s: exit %d, row %q; want exit %d, verdict %s", c.name, code, row, c.code, c.verdict)
		}
	}
}

func TestStats(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 80); p != 4 {
		t.Errorf("p80 = %v", p)
	}
	if v, ok := sumIntRow([]byte("[1,-2,30]\n")); !ok || v != 29 {
		t.Errorf("sumIntRow = %v, %v", v, ok)
	}
	for _, bad := range []string{"[1,2", "[1,,2]", "[1.5]", `{"stats":{}}`, "[]"} {
		if _, ok := sumIntRow([]byte(bad)); ok {
			t.Errorf("sumIntRow accepted %q", bad)
		}
	}
}
