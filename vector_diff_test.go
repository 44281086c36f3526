package nodb

// Differential tests for the vectorized execution pipeline: every query
// must produce the reference evaluator's result table (oracle_test.go)
// byte for byte, across loading policies, batch sizes and LIMIT shapes,
// and cancellation must stop it cleanly.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultTable renders a full result table (all rows, all columns) for
// byte-level comparison.
func resultTable(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for ci, v := range row {
			if ci > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// vectorDiffQueries covers every pipeline shape: plain projections,
// LIMIT with and without ORDER BY, aggregates, GROUP BY, joins.
func vectorDiffQueries() []string {
	return []string{
		"select a1, a2 from t",
		"select * from t where a2 > 300",
		"select a1 from t where a1 > 100 and a1 < 900 limit 7",
		"select a1, a3 from t where a3 < 250 order by a1 limit 10",
		"select a2, a1 from t order by a2 desc, a1 limit 25",
		"select count(*) from t",
		"select sum(a1), min(a2), max(a3), avg(a1), count(a2) from t where a2 < 700",
		"select sum(a1) from t where a1 = 123456", // empty input: sum = 0, avg NaN semantics
		"select avg(a3), count(*) from t where a3 between 100 and 400",
		"select a1, count(*), sum(a2) from t where a2 < 800 group by a1 order by a1 limit 20",
		"select count(*), a1 from t group by a1 order by a1 desc limit 5",
		"select a1 from t limit 0",
		"select a1 from t limit 100000",
	}
}

// vectorDiffJoinQueries join l (900 rows) and r (400 rows) both ways
// round, so the probe side is the larger input in some and the smaller
// in others.
func vectorDiffJoinQueries() []string {
	return []string{
		"select count(*) from l join r on l.a1 = r.a1",
		"select sum(l.a2), max(r.a2) from l join r on l.a1 = r.a1 where l.a3 < 150",
		"select l.a1, r.a2 from l join r on l.a1 = r.a1 where r.a2 < 100 order by l.a1, r.a2 limit 15",
		"select l.a1, count(*) from l join r on l.a1 = r.a1 group by l.a1 order by l.a1 limit 10",
		"select count(*) from r join l on r.a1 = l.a1",
		"select sum(r.a2), min(l.a3) from r join l on r.a1 = l.a1 where l.a3 < 150",
		"select r.a2, l.a3 from r join l on r.a1 = l.a1 where r.a2 < 60 order by r.a2, l.a3 limit 12",
		"select r.a1, l.a2, r.a2 from r join l on r.a2 = l.a2 where l.a1 < 40",
	}
}

// TestVectorVsLegacyPolicies holds every loading policy, at several batch
// sizes, to the oracle's result table byte for byte. Workers is pinned to 1
// so streaming scans deliver rows in file order, the order the oracle uses
// for queries without ORDER BY. (The "Legacy" in the name is historical:
// the oracle is the reference now.)
func TestVectorVsLegacyPolicies(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 1500, 3, 1000, 42)
	o := newOracle(t, map[string]string{"t": path})

	for _, cfg := range diffConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, batch := range []int{0, 1, 7, 64} {
				opts := cfg.opts
				opts.Workers = 1
				opts.BatchSize = batch
				db := Open(opts)
				if err := db.Attach("t", TableSpec{Path: path}); err != nil {
					t.Fatal(err)
				}
				for _, q := range vectorDiffQueries() {
					checkOracle(t, o, db, q, fmt.Sprintf("batch=%d", batch))
				}
				db.Close()
			}
		})
	}
}

// TestVectorVsLegacyJoins covers multi-table pipelines: HashJoinOp's output
// must match the oracle's nested-loop join (as a multiset where the query
// leaves the order open).
func TestVectorVsLegacyJoins(t *testing.T) {
	dir := t.TempDir()
	lp := filepath.Join(dir, "l.csv")
	rp := filepath.Join(dir, "r.csv")
	writeRandomTable(t, lp, 900, 3, 300, 21)
	writeRandomTable(t, rp, 400, 2, 300, 22)
	o := newOracle(t, map[string]string{"l": lp, "r": rp})

	for _, cfg := range []diffConfig{
		{"columns", Options{Policy: ColumnLoads}},
		{"partial-v1", Options{Policy: PartialLoadsV1}},
		{"partial-v2", Options{Policy: PartialLoadsV2}},
		{"external", Options{Policy: External}},
		{"auto", Options{Policy: Auto}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.opts
			opts.Workers = 1
			db := Open(opts)
			defer db.Close()
			if err := db.Attach("l", TableSpec{Path: lp}); err != nil {
				t.Fatal(err)
			}
			if err := db.Attach("r", TableSpec{Path: rp}); err != nil {
				t.Fatal(err)
			}
			// Twice over: auto promotes on the third touch of a column.
			for pass := 0; pass < 2; pass++ {
				for _, q := range vectorDiffJoinQueries() {
					checkOracle(t, o, db, q, fmt.Sprintf("%s pass %d", cfg.name, pass))
				}
			}
		})
	}
}

// TestJoinNumericKeys joins an int key column with a float one: equal
// numbers meet whatever their type (1000000 and 1000000.0, 5 and 5.0, 0
// and -0.0), on either side of the join, under every loading policy.
func TestJoinNumericKeys(t *testing.T) {
	dir := t.TempDir()
	tp, up := filepath.Join(dir, "t.csv"), filepath.Join(dir, "u.csv")
	if err := os.WriteFile(tp, []byte("1000000,5\n0,1\n7,2\n3,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(up, []byte("1000000.0,5.0,0.5\n-0.0,2.0,1\n7.5,3.0,2\n7.0,1.0,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, map[string]string{"t": tp, "u": up})
	queries := []string{
		"select count(*) from t join u on t.a1 = u.a1",
		"select t.a1, u.a3 from t join u on t.a1 = u.a1 order by t.a1, u.a3",
		"select count(*), sum(u.a3) from u join t on u.a1 = t.a1",
		"select t.a2, u.a3 from t join u on t.a2 = u.a2 order by t.a2, u.a3",
	}
	for _, cfg := range diffConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			db := Open(cfg.opts)
			defer db.Close()
			for name, path := range map[string]string{"t": tp, "u": up} {
				if err := db.Attach(name, TableSpec{Path: path}); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				checkOracle(t, o, db, q, cfg.name)
			}
		})
	}
}

// TestPolicySwitchDenseSelect moves one table through the paths that
// select over columns another policy made dense, each checked against the
// oracle: partial-v2 records a region, column loads make its columns
// dense, and partial-v2 answers the covered query again from them; then
// auto promotes a column on its third touch and scans it dense.
func TestPolicySwitchDenseSelect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 2000, 4, 1000, 61)
	o := newOracle(t, map[string]string{"t": path})
	db := Open(Options{Policy: PartialLoadsV2, Workers: 1})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	covered := []string{
		"select sum(a2), count(*), min(a1) from t where a1 >= 100 and a1 < 400",
		"select a1, a2 from t where a1 >= 150 and a1 < 160",
		"select count(*) from t",
	}
	for _, q := range covered {
		checkOracle(t, o, db, q, "partial-v2 first run")
	}

	db.SetPolicy(ColumnLoads)
	checkOracle(t, o, db, "select sum(a1), sum(a2) from t", "columns")

	db.SetPolicy(PartialLoadsV2)
	for _, q := range covered {
		before := db.Work()
		checkOracle(t, o, db, q, "partial-v2 over dense columns")
		work := db.Work()
		if hits := work.CacheHits - before.CacheHits; hits != 1 {
			t.Errorf("%s: %d adaptive-store hits, want 1 (the covered path)", q, hits)
		}
		if raw := work.RawBytesRead - before.RawBytesRead; raw != 0 {
			t.Errorf("%s: read %d raw bytes, want 0", q, raw)
		}
	}

	db.SetPolicy(Auto)
	for touch := 1; touch <= 4; touch++ {
		q := fmt.Sprintf("select sum(a3), count(*) from t where a4 >= %d and a4 < %d", touch*10, touch*10+30)
		checkOracle(t, o, db, q, fmt.Sprintf("auto touch %d", touch))
	}
	st, err := db.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(st.DenseCols) != "[0 1 2 3]" {
		t.Errorf("dense columns after auto's promotion = %v, want [0 1 2 3]", st.DenseCols)
	}
	checkOracle(t, o, db, "select a1, a3, a4 from t where a4 < 20 and a3 > 500", "auto over dense columns")
}

// TestVectorVsLegacyRandom checks a randomized aggregate workload (the
// same generator the policy differential uses) against the oracle.
func TestVectorVsLegacyRandom(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	const rows, cols = 1200, 4
	const maxVal = 600
	writeRandomTable(t, path, rows, cols, maxVal, 314)
	o := newOracle(t, map[string]string{"t": path})

	db := Open(Options{Policy: PartialLoadsV2, Workers: 1})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2718))
	for qi := 0; qi < 40; qi++ {
		checkOracle(t, o, db, randomQuery(rng, cols, maxVal), fmt.Sprintf("query %d", qi))
	}
}

// TestVectorCancellation pins cancellation behavior: a cancelled context
// aborts the query, and an early cursor Close stops a streaming scan
// cleanly (no error).
func TestVectorCancellation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 5000, 3, 5000, 77)

	t.Run("vector", func(t *testing.T) {
		db := Open(Options{Policy: PartialLoadsV1, Workers: 1, BatchSize: 16})
		defer db.Close()
		if err := db.Attach("t", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := db.QueryContext(ctx, "select sum(a1) from t"); err == nil {
			t.Fatal("cancelled context should abort the query")
		}

		rows, err := db.QueryRows(context.Background(), "select a1 from t where a1 >= 0")
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for rows.Next() {
			if got++; got == 3 {
				break
			}
		}
		if got != 3 {
			t.Fatalf("read %d rows before close, want 3", got)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("early close: %v", err)
		}
	})
}

// TestVectorLimitStopsScan checks that a LIMIT through the batch pipeline
// terminates a streaming raw-file scan early: with a small batch size the
// scan must read far fewer raw bytes than the full file.
func TestVectorLimitStopsScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 200_000, 3, 1000, 123)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	db := Open(Options{Policy: External, Workers: 1, ChunkSize: 64 << 10, BatchSize: 64})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("select a1 from t limit 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if read := res.Stats.Work.RawBytesRead; read >= st.Size()/2 {
		t.Errorf("LIMIT 5 read %d of %d raw bytes; the pipeline should stop the scan early", read, st.Size())
	}
}

// TestVectorExplainTree checks both Explain surfaces: the static pipeline
// rendering before execution and the per-operator counters after.
func TestVectorExplainTree(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 500, 3, 100, 9)

	db := Open(Options{Policy: ColumnLoads, Workers: 1})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	plan, err := db.Explain("select a1 from t where a2 < 50 order by a1 limit 3")
	if err != nil {
		t.Fatal(err)
	}
	// ORDER BY ... LIMIT k compiles to the bounded heap, under the name the
	// executed tree gives it too; without a LIMIT it is a full sort.
	const topK = "TopK(3 [{0 false}])"
	for _, want := range []string{"pipeline (batch=1024):", "Limit(3)", topK, "Project(", "Filter(t0 1 preds)", "DenseScan(t0"} {
		if !strings.Contains(plan, want) {
			t.Errorf("Explain output missing %q:\n%s", want, plan)
		}
	}
	if strings.Contains(plan, "Sort(") {
		t.Errorf("ORDER BY with LIMIT should not sort everything:\n%s", plan)
	}
	if plan, err := db.Explain("select a1 from t order by a1"); err != nil || !strings.Contains(plan, "Sort([{0 false}])") {
		t.Errorf("ORDER BY without LIMIT: Explain = %v\n%s", err, plan)
	}

	res, err := db.Query("select a1 from t where a2 < 50 order by a1 limit 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stats.Plan, topK+"  (batches=1 rows=3)") {
		t.Errorf("executed plan has no %s node with its counters:\n%s", topK, res.Stats.Plan)
	}

	res, err = db.Query("select a1 from t where a2 < 50")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vectorized pipeline:", "Limit(none)", "batches=", "rows="} {
		if !strings.Contains(res.Stats.Plan, want) {
			t.Errorf("executed plan missing %q:\n%s", want, res.Stats.Plan)
		}
	}
}

// TestExecutedPlanNamesLimit: the plan a query reports after running
// names the limit it asked for, not the quota left once the rows passed.
func TestExecutedPlanNamesLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	writeRandomTable(t, path, 500, 3, 100, 9)
	db := Open(Options{Policy: ColumnLoads, Workers: 1})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("select a1, a2 from t where a3 < 90 limit 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	if !strings.Contains(res.Stats.Plan, "Limit(3)  (batches=1 rows=3)") {
		t.Errorf("executed plan does not name Limit(3):\n%s", res.Stats.Plan)
	}
}
