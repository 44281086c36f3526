package nodb_test

// Benchmarks regenerating the paper's experiments, one per figure/table.
// Each bench runs the corresponding experiment from internal/experiments at
// a reduced scale and reports each series' total wall-clock time (the
// paper's y-axis) as a custom metric. Run the full-scale, formatted
// versions with `go run ./cmd/nodbbench`.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nodb"
	"nodb/internal/experiments"
)

// benchCfg shares generated data files across benchmark iterations.
func benchCfg() experiments.Config {
	return experiments.Config{
		DataDir: filepath.Join(os.TempDir(), "nodb-bench-data"),
		Scale:   0.05,
	}
}

// reportSeries publishes each series' total wall-clock seconds.
func reportSeries(b *testing.B, rep *experiments.Report) {
	b.Helper()
	for _, s := range rep.Series {
		b.ReportMetric(s.Total().Seconds(), "wall-s/"+sanitizeMetric(s.Name))
	}
}

func sanitizeMetric(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r == ' ':
			out = append(out, '_')
		case r == '/':
			out = append(out, '-')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = r.Run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, rep)
}

// BenchmarkFig1aLoading regenerates Figure 1a (loading cost vs size).
func BenchmarkFig1aLoading(b *testing.B) { runExperiment(b, "fig1a") }

// BenchmarkFig1bQueryCosts regenerates Figure 1b (Awk vs cold/hot/index DB).
func BenchmarkFig1bQueryCosts(b *testing.B) { runExperiment(b, "fig1b") }

// BenchmarkJoinExperiment regenerates the §2.2 in-text join comparison.
func BenchmarkJoinExperiment(b *testing.B) { runExperiment(b, "joins") }

// BenchmarkPerlVsAwk regenerates the §2.2 in-text Perl-vs-Awk comparison.
func BenchmarkPerlVsAwk(b *testing.B) { runExperiment(b, "perl") }

// BenchmarkFig3Sequence regenerates Figure 3 (20-query loading-operator
// sequence).
func BenchmarkFig3Sequence(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4Sequence regenerates Figure 4 (12-query file-reorganization
// sequence).
func BenchmarkFig4Sequence(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkAblationPositionalMap measures the positional map's effect on a
// late-attribute load.
func BenchmarkAblationPositionalMap(b *testing.B) { runExperiment(b, "abl-pm") }

// BenchmarkAblationSplitFiles measures split files vs raw re-reads.
func BenchmarkAblationSplitFiles(b *testing.B) { runExperiment(b, "abl-split") }

// BenchmarkAblationTokenizerWorkers measures tokenizer parallelism.
func BenchmarkAblationTokenizerWorkers(b *testing.B) { runExperiment(b, "abl-par") }

// BenchmarkAblationEarlyAbandon measures early row abandonment.
func BenchmarkAblationEarlyAbandon(b *testing.B) { runExperiment(b, "abl-early") }

// BenchmarkAblationBudget measures the budget-vs-latency tradeoff under
// cost-aware and LRU eviction.
func BenchmarkAblationBudget(b *testing.B) { runExperiment(b, "abl-budget") }

// --- End-to-end engine micro-benchmarks over the public API ---

func benchTable(b *testing.B, rows, cols int) string {
	b.Helper()
	dir := filepath.Join(os.TempDir(), "nodb-bench-data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("api_%dx%d.csv", rows, cols))
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return path
	}
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < rows; i++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				fmt.Fprint(f, ",")
			}
			fmt.Fprint(f, (i*(c*7+1)+c)%rows)
		}
		fmt.Fprintln(f)
	}
	return path
}

// BenchmarkFirstQueryColumnLoads measures the cold-start first query (link
// + adaptive load + aggregate) — the paper's headline metric.
func BenchmarkFirstQueryColumnLoads(b *testing.B) {
	path := benchTable(b, 200_000, 4)
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, DisableRevalidation: true})
		if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Query("select sum(a1), avg(a2) from t where a1 > 10000 and a1 < 30000"); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkHotQuery measures steady-state queries once data is loaded.
func BenchmarkHotQuery(b *testing.B) {
	path := benchTable(b, 200_000, 4)
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, DisableRevalidation: true})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Query("select sum(a1), avg(a2) from t where a1 > 0"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("select sum(a1), avg(a2) from t where a1 > 10000 and a1 < 30000"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotQueryUnderBudget measures the steady-state scan hot path
// with the memory governor active but never evicting: the pin/account/
// enforce bookkeeping must stay off the per-row path.
func BenchmarkHotQueryUnderBudget(b *testing.B) {
	path := benchTable(b, 200_000, 4)
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, MemoryBudget: 1 << 30, DisableRevalidation: true})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Query("select sum(a1), avg(a2) from t where a1 > 0"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("select sum(a1), avg(a2) from t where a1 > 10000 and a1 < 30000"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvictReloadCycle measures the eviction hot path: a budget that
// holds one column while the workload alternates between two, so every
// query evicts one column and rebuilds the other from the raw file.
func BenchmarkEvictReloadCycle(b *testing.B) {
	path := benchTable(b, 50_000, 4)
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, MemoryBudget: 600_000, DisableRevalidation: true})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := "select sum(a1) from t"
		if i%2 == 1 {
			q = "select sum(a3) from t"
		}
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if db.MemStats().Evictions == 0 && b.N > 1 {
		b.Fatal("budget cycle should evict")
	}
}

// BenchmarkPartialV2CacheHit measures a covered query served entirely from
// the adaptive store.
func BenchmarkPartialV2CacheHit(b *testing.B) {
	path := benchTable(b, 200_000, 4)
	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV2, DisableRevalidation: true})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	q := "select sum(a1), avg(a2) from t where a1 > 10000 and a1 < 30000"
	if _, err := db.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParse measures the SQL front end alone.
func BenchmarkSQLParse(b *testing.B) {
	db := nodb.Open(nodb.Options{})
	defer db.Close()
	path := benchTable(b, 100, 4)
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain("select sum(a1),min(a4),max(a3),avg(a2) from t where a1>10 and a1<20 and a2>30 and a2<40"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentClients measures the server scenario: one shared DB,
// GOMAXPROCS parallel clients firing QueryContext at a warmed adaptive
// store. This is the hot path nodbd serves once the workload's columns
// are loaded.
func BenchmarkConcurrentClients(b *testing.B) {
	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV2})
	defer db.Close()
	path := benchTable(b, 50000, 4)
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	q := "select sum(a1), count(*) from t where a1 > 10000 and a1 < 30000"
	if _, err := db.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			if _, err := db.QueryContext(ctx, q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkConcurrentClientsColdLoads is the same fan-out but against
// tables whose columns race to load: each iteration cycles predicates so
// partial-load coverage keeps missing and the raw file stays in play.
func BenchmarkConcurrentClientsColdLoads(b *testing.B) {
	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV1})
	defer db.Close()
	path := benchTable(b, 50000, 4)
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		i := 0
		for pb.Next() {
			lo := (i * 997) % 40000
			q := fmt.Sprintf("select sum(a1) from t where a1 > %d and a1 < %d", lo, lo+5000)
			if _, err := db.QueryContext(ctx, q); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// --- Restart benchmarks: the snapshot cache's reason to exist ---

// restartBench measures the first query of a freshly opened DB over an
// already-learned table: warm (CacheDir populated by a previous DB's
// Close) versus cold (no cache; the adaptive learning starts over).
func restartBench(b *testing.B, warm bool) {
	b.Helper()
	path := benchTable(b, 50000, 4)
	cache := filepath.Join(b.TempDir(), "cache")
	q := "select sum(a1), avg(a2) from t where a1 > 10000 and a1 < 30000"

	// Teach one DB and snapshot its state.
	seed := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, CacheDir: cache})
	if err := seed.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Query(q); err != nil {
		b.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := nodb.Options{Policy: nodb.ColumnLoads}
		if warm {
			opts.CacheDir = cache
		}
		db := nodb.Open(opts)
		if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
			b.Fatal(err)
		}
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if warm && res.Stats.Work.RawBytesRead != 0 {
			b.Fatalf("warm first query read %d raw bytes", res.Stats.Work.RawBytesRead)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

// BenchmarkWarmRestartFirstQuery: first query after reopening with a
// populated CacheDir (columns deserialize from the snapshot).
func BenchmarkWarmRestartFirstQuery(b *testing.B) { restartBench(b, true) }

// BenchmarkColdRestartFirstQuery: the same first query with no cache —
// the full adaptive load, for comparison against the warm number.
func BenchmarkColdRestartFirstQuery(b *testing.B) { restartBench(b, false) }

// --- Scan-synopsis benchmarks: portion skipping on the raw-scan path ---

// clusteredBenchTable writes rows whose first attribute is monotone (the
// log-file shape zone maps thrive on); the rest are shuffled.
func clusteredBenchTable(b *testing.B, rows, cols int) string {
	b.Helper()
	dir := filepath.Join(os.TempDir(), "nodb-bench-data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("clustered_%dx%d.csv", rows, cols))
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return path
	}
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < rows; i++ {
		fmt.Fprint(f, i)
		for c := 1; c < cols; c++ {
			fmt.Fprintf(f, ",%d", (i*(c*7+1)+c)%rows)
		}
		fmt.Fprintln(f)
	}
	return path
}

// selectiveColdScan measures a 1%-selectivity predicate query on a cold
// (uncached) column after exactly one prior tokenizing pass, under
// PartialLoadsV1 — every query re-scans the raw file, so the measured
// cost is the scan itself. With the synopsis the prior pass leaves
// per-portion zone maps behind and the measured query skips ~99% of the
// portions; without it the query re-tokenizes the whole file.
func selectiveColdScan(b *testing.B, disableSynopsis bool) {
	const rows = 400_000
	path := clusteredBenchTable(b, rows, 4)
	st, _ := os.Stat(path)
	// The comparator models the pre-PR path faithfully: sequential,
	// single-portion, one file read per query — no layout pre-pass.
	workers := 0
	if disableSynopsis {
		workers = 1
	}
	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV1, DisableSynopsis: disableSynopsis, Workers: workers, ChunkSize: 256 << 10, DisableRevalidation: true})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	// The one prior pass: a wide query over the same columns.
	if _, err := db.Query("select sum(a2) from t where a1 >= 0"); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rows/2 + (i%7)*100
		q := fmt.Sprintf("select sum(a2) from t where a1 >= %d and a1 < %d", lo, lo+rows/100)
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !disableSynopsis && db.Work().PortionsSkipped == 0 {
		b.Fatal("synopsis bench skipped no portions")
	}
}

// BenchmarkSelectiveColdScan: the PR's headline path — 1%-selectivity
// query after one learning pass, portions pruned by the synopsis.
func BenchmarkSelectiveColdScan(b *testing.B) { selectiveColdScan(b, false) }

// BenchmarkSelectiveColdScanNoSynopsis: the identical query with the
// synopsis disabled — the pre-PR full re-scan, kept as the comparator.
func BenchmarkSelectiveColdScanNoSynopsis(b *testing.B) { selectiveColdScan(b, true) }

// --- Vectorized-execution benchmark ---

// BenchmarkBatchPipeline measures a hot full-scan aggregate through the
// vectorized operator pipeline — the table fully loaded, every row
// consumed — so the number is pure execution machinery.
func BenchmarkBatchPipeline(b *testing.B) {
	const rows = 400_000
	path := benchTable(b, rows, 4)
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, Workers: 1, DisableRevalidation: true})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	q := fmt.Sprintf("select sum(a1), min(a2), count(*) from t where a2 < %d", rows)
	if _, err := db.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotMix cycles the five hot-serve statement shapes (hotmix_test.go)
// over a warm 300k-row table, a distinct statement per op: the filter,
// group-by and top-k paths at memory speed, plus parse and plan.
func BenchmarkHotMix(b *testing.B) {
	const rows = 300_000
	db := openHot(b, rows)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(context.Background(), hotShapes[i%len(hotShapes)].sql(rows, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- NDJSON benchmarks: in-situ scans over newline-delimited JSON ---

// ndjsonBenchTable writes rows of {"a1":...,...} with aCols integer
// fields, reusing the file across runs.
func ndjsonBenchTable(b *testing.B, rows, cols int) string {
	b.Helper()
	dir := filepath.Join(os.TempDir(), "nodb-bench-data")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("api_%dx%d.ndjson", rows, cols))
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return path
	}
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < rows; i++ {
		fmt.Fprint(f, "{")
		for c := 0; c < cols; c++ {
			if c > 0 {
				fmt.Fprint(f, ",")
			}
			fmt.Fprintf(f, `"a%d":%d`, c+1, (i*(c*7+1)+c)%rows)
		}
		fmt.Fprintln(f, "}")
	}
	return path
}

// BenchmarkNDJSONColdScan measures the cold first query over an NDJSON
// table: schema detection, line tokenization, delayed parsing of the two
// queried fields, aggregate — the in-situ NDJSON headline path.
func BenchmarkNDJSONColdScan(b *testing.B) {
	path := ndjsonBenchTable(b, 200_000, 6)
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, DisableRevalidation: true})
		if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Query("select sum(a1), count(*) from t where a3 > 1000"); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkNDJSONLazyVsEager pins delayed parsing: a narrow query over a
// wide NDJSON table parses only the queried field's byte ranges (lazy),
// against a query that touches every field (eager). The timed loop runs
// the lazy scan; the eager scan is measured alongside and reported as the
// eager-ns and speedup metrics. The parsing-work reduction is asserted
// deterministically from the ValuesParsed counters: lazy must parse less
// than half of what eager parses.
func BenchmarkNDJSONLazyVsEager(b *testing.B) {
	const rows, cols = 200_000, 6
	path := ndjsonBenchTable(b, rows, cols)
	st, _ := os.Stat(path)

	scanOnce := func(query string) (time.Duration, int64) {
		db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV1, Workers: 1, DisableRevalidation: true})
		defer db.Close()
		if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := db.Query(query)
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(start), res.Stats.Work.ValuesParsed
	}

	lazyQ := "select sum(a1) from t"
	eagerQ := "select sum(a1), sum(a2), sum(a3), sum(a4), sum(a5), sum(a6) from t"
	var lazyNs, eagerNs, lazyParsed, eagerParsed int64
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt, lp := scanOnce(lazyQ)
		b.StopTimer()
		et, ep := scanOnce(eagerQ)
		b.StartTimer()
		lazyNs += lt.Nanoseconds()
		eagerNs += et.Nanoseconds()
		lazyParsed, eagerParsed = lp, ep
	}
	b.StopTimer()
	if lazyParsed*2 > eagerParsed {
		b.Fatalf("lazy scan parsed %d values vs eager %d; delayed parsing should cut parsing by >= 2x", lazyParsed, eagerParsed)
	}
	b.ReportMetric(float64(eagerNs)/float64(b.N), "eager-ns/op")
	if lazyNs > 0 {
		b.ReportMetric(float64(eagerNs)/float64(lazyNs), "speedup")
	}
}

// BenchmarkResultCacheHit measures the replay path: a repeated identical
// query answered from the result cache instead of the adaptive store.
// Compare against BenchmarkHotQuery (same query, no cache) for the
// end-to-end win on redundant traffic.
func BenchmarkResultCacheHit(b *testing.B) {
	path := benchTable(b, 200_000, 4)
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, ResultCacheBytes: 32 << 20, DisableRevalidation: true})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Query("select sum(a1), avg(a2) from t where a1 > 10000 and a1 < 30000"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("select sum(a1), avg(a2) from t where a1 > 10000 and a1 < 30000"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := db.ResultCacheStats(); st.Hits == 0 {
		b.Fatal("benchmark never hit the cache")
	}
}

// BenchmarkConcurrentDuplicateQueries measures the cache+singleflight
// serving path under parallel clients all issuing the same query, the
// duplicate-heavy traffic the result cache and singleflight collapse
// exist for.
func BenchmarkConcurrentDuplicateQueries(b *testing.B) {
	path := benchTable(b, 200_000, 4)
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, ResultCacheBytes: 32 << 20, DisableRevalidation: true})
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.QueryContext(ctx, "select sum(a3), count(*) from t where a2 >= 100"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	work := db.Work()
	b.ReportMetric(float64(db.ResultCacheStats().Hits), "cache-hits")
	b.ReportMetric(float64(work.QueriesCollapsed), "collapsed")
}
