package nodb

// Format differential tests: the same logical table serialized as CSV and
// as NDJSON must answer every query identically under every loading
// policy — including with synopsis pruning active, under memory-budget
// eviction, and across a cache-backed engine restart. The tokenizer is
// the only layer that differs between formats; everything above it is
// shared mechanism.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDualFormatTable writes the same rows to a CSV file and an NDJSON
// file: cols-1 integer columns in [0, maxVal) plus one float column with
// fixed %.4f formatting so the value text is byte-identical in both
// files.
func writeDualFormatTable(t *testing.T, csvPath, jsonPath string, rows, cols int, maxVal int64, seed int64) {
	t.Helper()
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	jf, err := os.Create(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()

	rng := rand.New(rand.NewSource(seed))
	var csvb, jsonb strings.Builder
	for i := 0; i < rows; i++ {
		csvb.Reset()
		jsonb.Reset()
		jsonb.WriteByte('{')
		for c := 0; c < cols; c++ {
			var text string
			if c == cols-1 {
				text = fmt.Sprintf("%.4f", rng.Float64()*float64(maxVal))
			} else {
				text = fmt.Sprintf("%d", rng.Int63n(maxVal))
			}
			if c > 0 {
				csvb.WriteByte(',')
				jsonb.WriteByte(',')
			}
			csvb.WriteString(text)
			fmt.Fprintf(&jsonb, `"a%d":%s`, c+1, text)
		}
		csvb.WriteByte('\n')
		jsonb.WriteString("}\n")
		if _, err := cf.WriteString(csvb.String()); err != nil {
			t.Fatal(err)
		}
		if _, err := jf.WriteString(jsonb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

func formatDiffQueries(rng *rand.Rand, cols int, maxVal int64) []string {
	queries := []string{
		"select count(*) from t",
		"select * from t where a1 < 10 order by a1, a2 limit 20",
		fmt.Sprintf("select sum(a%d), avg(a%d) from t where a1 between %d and %d",
			cols, cols, maxVal/4, maxVal/2),
		"select a1, count(*) from t where a2 > 100 group by a1 order by a1 limit 10",
		// Out-of-range predicate: with synopses on, zone maps should prune
		// the whole file — both formats must still agree on the answer.
		fmt.Sprintf("select count(*), sum(a2) from t where a1 > %d", maxVal*10),
	}
	for i := 0; i < 20; i++ {
		queries = append(queries, randomQuery(rng, cols, maxVal))
	}
	return queries
}

// runFormatDiff links the CSV file as "t" in one engine and the NDJSON
// file as "t" in another, runs the workload through both, and compares
// full result tables byte for byte.
func runFormatDiff(t *testing.T, csvOpts, jsonOpts Options, csvPath, jsonPath string, queries []string) {
	t.Helper()
	csvDB, jsonDB := Open(csvOpts), Open(jsonOpts)
	defer csvDB.Close()
	defer jsonDB.Close()
	if err := csvDB.Attach("t", TableSpec{Path: csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := jsonDB.Attach("t", TableSpec{Path: jsonPath}); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		want, err := csvDB.Query(q)
		if err != nil {
			t.Fatalf("csv query %d (%s): %v", qi, q, err)
		}
		got, err := jsonDB.Query(q)
		if err != nil {
			t.Fatalf("ndjson query %d (%s): %v", qi, q, err)
		}
		if g, w := resultTable(got), resultTable(want); g != w {
			t.Errorf("query %d (%s):\nndjson:\n%scsv:\n%s", qi, q, g, w)
		}
	}
}

// TestFormatDifferentialPolicies runs the CSV-vs-NDJSON comparison under
// every loading policy (synopses are on by default, so zone-map pruning
// is exercised throughout).
func TestFormatDifferentialPolicies(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	jsonPath := filepath.Join(dir, "t.ndjson")
	const rows, cols = 1500, 4
	const maxVal = 800
	writeDualFormatTable(t, csvPath, jsonPath, rows, cols, maxVal, 61)

	rng := rand.New(rand.NewSource(17))
	queries := formatDiffQueries(rng, cols, maxVal)

	for _, cfg := range diffConfigs(dir) {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			csvOpts, jsonOpts := cfg.opts, cfg.opts
			csvOpts.Workers = 1
			jsonOpts.Workers = 1
			if jsonOpts.SplitDir != "" {
				// Split registries are per-engine; NDJSON degrades the
				// policy to column loads but still must answer identically.
				jsonOpts.SplitDir = filepath.Join(dir, "sf-json")
			}
			runFormatDiff(t, csvOpts, jsonOpts, csvPath, jsonPath, queries)
		})
	}
}

// TestFormatDifferentialEviction repeats the comparison with a memory
// budget small enough to force evictions mid-workload, so some queries
// reload from raw bytes after auxiliary structures were dropped.
func TestFormatDifferentialEviction(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	jsonPath := filepath.Join(dir, "t.ndjson")
	const rows, cols = 2000, 4
	const maxVal = 1000
	writeDualFormatTable(t, csvPath, jsonPath, rows, cols, maxVal, 62)

	rng := rand.New(rand.NewSource(29))
	queries := formatDiffQueries(rng, cols, maxVal)

	for _, policy := range []Policy{ColumnLoads, PartialLoadsV2} {
		policy := policy
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			opts := Options{Policy: policy, Workers: 1, MemoryBudget: 48 << 10}
			runFormatDiff(t, opts, opts, csvPath, jsonPath, queries)
		})
	}
}

// TestFormatDifferentialWarmRestart closes and reopens cache-backed
// engines between two workload halves: the NDJSON engine must restore
// its positional maps and synopses from the cache directory and keep
// agreeing with the CSV engine.
func TestFormatDifferentialWarmRestart(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	jsonPath := filepath.Join(dir, "t.ndjson")
	const rows, cols = 1200, 4
	const maxVal = 600
	writeDualFormatTable(t, csvPath, jsonPath, rows, cols, maxVal, 63)

	csvCache := filepath.Join(dir, "cache-csv")
	jsonCache := filepath.Join(dir, "cache-json")
	rng := rand.New(rand.NewSource(31))
	queries := formatDiffQueries(rng, cols, maxVal)
	half := len(queries) / 2

	csvOpts := Options{Policy: PartialLoadsV2, Workers: 1, CacheDir: csvCache}
	jsonOpts := Options{Policy: PartialLoadsV2, Workers: 1, CacheDir: jsonCache}

	runFormatDiff(t, csvOpts, jsonOpts, csvPath, jsonPath, queries[:half])
	// Cold restart: fresh engines warm up from their cache directories.
	runFormatDiff(t, csvOpts, jsonOpts, csvPath, jsonPath, queries[half:])
}

// TestFormatDifferentialVectorModes holds both formats, at a small batch
// size, to the oracle's answers over the CSV copy of the rows.
func TestFormatDifferentialVectorModes(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	jsonPath := filepath.Join(dir, "t.ndjson")
	const rows, cols = 1000, 3
	const maxVal = 500
	writeDualFormatTable(t, csvPath, jsonPath, rows, cols, maxVal, 64)
	o := newOracle(t, map[string]string{"t": csvPath})

	rng := rand.New(rand.NewSource(37))
	queries := formatDiffQueries(rng, cols, maxVal)

	for _, f := range []struct{ name, path string }{{"csv-vs-oracle", csvPath}, {"ndjson-vs-oracle", jsonPath}} {
		t.Run(f.name, func(t *testing.T) {
			db := Open(Options{Policy: PartialLoadsV2, Workers: 1, BatchSize: 32})
			defer db.Close()
			if err := db.Attach("t", TableSpec{Path: f.path}); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				checkOracle(t, o, db, q, fmt.Sprintf("query %d", qi))
			}
		})
	}
}
