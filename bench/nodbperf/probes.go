package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"nodb/bench/nodbperf/layers/probe"
)

// unavailable is the value of a per-layer metric whose probe did not build
// or run; every real value is non-negative. A probe imports
// nodb/internal/..., so a refactor may break it, and the run goes on.
const unavailable = -1

// metricDef is one per-layer metric; higher-is-better for rates and hit
// ratios, lower for everything else. BENCHMARK.json repeats these tables;
// the self-test keeps them equal.
type metricDef struct {
	name, unit string
	higherBest bool
}

// opLayerDefs are the per-layer metrics a traced run takes from the
// workload's own ops (see summary.perLayer).
var opLayerDefs = []metricDef{
	{"trace_overhead_pct", "%", false},
	{"error_rate", "ratio", false},
	{"server.op_p99_ms", "ms", false},
	{"server.http_overhead_us", "us", false},
	{"seq_first_query_ms", "ms", false},
	{"seq_hot_query_ms", "ms", false},
	{"seq_refresh_ms", "ms", false},
	{"rows_per_s", "1/s", true},
	{"core.raw_bytes_per_op", "B", false},
	{"core.rows_tokenized_per_op", "count", false},
	{"core.values_parsed_per_op", "count", false},
	{"core.portions_skipped_per_op", "count", true},
	{"core.posmap_hit_ratio", "ratio", true},
	{"core.column_cache_hit_ratio", "ratio", true},
	{"proc.peak_rss_mb", "MB", false},
	{"proc.cpu_s_per_op", "s", false},
	{"proc.allocs_per_op", "count", false},
	{"proc.gc_pause_ms_total", "ms", false},
}

// probeDefs names every layer probe (a main under layers/<layer>, built
// with -tags layerprobe) and the metrics it must print.
var probeDefs = []struct {
	layer   string
	metrics []metricDef
}{
	{"vfs", []metricDef{{"vfs.read_mb_per_s", "MB/s", true}}},
	{"scan", []metricDef{
		{"scan.split_mb_per_s", "MB/s", true}, {"scan.tokenize_mb_per_s", "MB/s", true},
		{"scan.tokenize_ns_per_row", "ns", false}, {"scan.tokenize_all_ns_per_row", "ns", false},
		{"scan.parse_ns_per_value", "ns", false}, {"scan.allocs_per_row", "count", false}}},
	{"schema", []metricDef{{"schema.detect_ms", "ms", false}}},
	{"catalog", []metricDef{{"catalog.sign_ms", "ms", false}, {"catalog.extend_mb_per_s", "MB/s", true}}},
	{"loader", []metricDef{{"loader.column_load_mb_per_s", "MB/s", true}, {"loader.maintenance_ns_per_row", "ns", false}}},
	{"posmap", []metricDef{{"posmap.record_ns_per_entry", "ns", false}, {"posmap.lookup_ns", "ns", false}, {"posmap.bytes_per_row", "B", false}}},
	{"synopsis", []metricDef{{"synopsis.observe_ns_per_value", "ns", false}, {"synopsis.prune_us", "us", false}}},
	{"sql", []metricDef{{"sql.parse_us", "us", false}, {"sql.normalize_us", "us", false}}},
	{"plan", []metricDef{{"plan.build_us", "us", false}}},
	{"exec", []metricDef{
		{"exec.filter_ns_per_row", "ns", false}, {"exec.agg_ns_per_row", "ns", false},
		{"exec.groupby_ns_per_row", "ns", false}, {"exec.sort_ns_per_row", "ns", false}}},
	{"expr", []metricDef{{"expr.filter_ns_per_row", "ns", false}}},
	{"govern", []metricDef{{"govern.enforce_us", "us", false}}},
	{"core", []metricDef{
		{"core.cold_open_ms", "ms", false}, {"core.cold_attach_ms", "ms", false}, {"core.cold_query_ms", "ms", false},
		{"core.cold_close_ms", "ms", false}, {"core.query_hot_us", "us", false}, {"core.rows_ns_per_row", "ns", false}}},
	{"server", []metricDef{{"server.query_us", "us", false}, {"server.encode_ns_per_row", "ns", false}}},
}

// probeHotStatements is how many statements of the mix the probes replay.
const probeHotStatements = 200

// runProbes builds and runs every layer probe over this run's file and
// adds their metrics to res and their spans to tr.
func runProbes(e *env, r *run, res *result, inf *info, tr *tracer) error {
	tailFile := filepath.Join(e.work, "tail.csv")
	if err := os.WriteFile(tailFile, r.tab.tailCSV, 0o644); err != nil {
		return err
	}
	rng := newRNG(r.cfg.seed, 2)
	in := probe.Input{
		File: r.csv, Rows: r.tab.rows, Cols: totalCols,
		TailFile: tailFile, TailRows: r.tab.tail, Seed: r.cfg.seed,
		Cold: r.tab.coldQuery(rng).sql,
	}
	q, _, _ := r.tab.exportQuery(rng)
	in.Export = q.sql
	for i := 0; i < probeHotStatements; i++ {
		in.Hot = append(in.Hot, r.tab.hotQuery(rng).sql)
	}
	b, _ := json.Marshal(in)
	input := filepath.Join(e.work, "probe-input.json")
	if err := os.WriteFile(input, b, 0o644); err != nil {
		return err
	}

	benchDir := filepath.Join(e.root, "bench", "nodbperf")
	for _, def := range probeDefs {
		var out probeOutput
		start, err := time.Now(), errors.New("layer probes skipped")
		if !r.cfg.noProbes {
			out, start, err = runProbe(e, benchDir, def.layer, input)
		}
		if err != nil {
			if !r.cfg.noProbes {
				fmt.Fprintf(os.Stderr, "nodbperf: probe %s unavailable: %v\n", def.layer, err)
			}
			if inf.Unavail == nil {
				inf.Unavail = map[string]string{}
			}
			inf.Unavail[def.layer] = err.Error()
		}
		for _, m := range def.metrics {
			if got, ok := out.Metrics[m.name]; ok && got.Unit == m.unit {
				res.Metrics[m.name] = got
			} else {
				res.Metrics[m.name] = metric{unavailable, m.unit}
			}
		}
		parent := tr.add(0, 0, "probe."+def.layer, start, time.Now())
		for _, s := range out.Spans {
			tr.add(parent, 0, s.Name, start.Add(time.Duration(s.Start)), start.Add(time.Duration(s.End)))
		}
	}
	return nil
}

type probeOutput struct {
	Metrics map[string]metric `json:"metrics"`
	Spans   []span            `json:"spans"`
}

func runProbe(e *env, benchDir, layer, input string) (out probeOutput, start time.Time, err error) {
	bin := filepath.Join(e.buildDir, "nodbperf", "probe-"+layer)
	start = time.Now()
	if err = goBuild(e, benchDir, bin, "./layers/"+layer, "layerprobe"); err != nil {
		return out, start, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start = time.Now()
	cmd := exec.CommandContext(ctx, bin, "-input", input)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return out, start, fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	err = json.Unmarshal(stdout, &out)
	return out, start, err
}
