package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodb/internal/plan"
	"nodb/internal/qos"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// TestResultCacheReplaysThroughCursor: with a result cache, the second run
// of a statement is a replay — same rows, no raw-file work, a "result cache
// hit" plan note — and the cache, Explain and the tenant attribution all
// see it.
func TestResultCacheReplaysThroughCursor(t *testing.T) {
	e := newEngine(t, Options{ResultCacheBytes: 1 << 20, Tenants: []qos.Tenant{{Name: "a", Weight: 1}}})
	linkTable(t, e, "G", 2000)
	ctx := qos.WithTenant(context.Background(), "a")
	const q = "select a1, a2 from G where a1 < 40 order by a1"

	first, err := e.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.QueryStmtContext(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 40 || first.String() != second.String() {
		t.Fatalf("replay differs from the execution:\n%s\nvs\n%s", second, first)
	}
	if !strings.Contains(second.Stats.Plan, "result cache hit") || second.Stats.Work.RawBytesRead != 0 {
		t.Errorf("second run should replay from the cache: plan %q, %d raw bytes", second.Stats.Plan, second.Stats.Work.RawBytesRead)
	}
	if st := e.ResultCacheStats(); st.Hits != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit and 1 entry", st)
	}
	out, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "this-query=cached") || !strings.Contains(out, "tenant a:") {
		t.Errorf("Explain should report the cached entry and the tenant:\n%s", out)
	}
	if ports, _, err := e.TableSynopsis("G"); err != nil || len(ports) == 0 {
		t.Errorf("TableSynopsis = %d portions (%v), want the learned layout", len(ports), err)
	}
	if _, err := e.QueryStmt(stmt); err != nil {
		t.Fatal(err)
	}
}

// TestRowsScanDestinations: Scan converts each value into every supported
// destination type and refuses the conversions that would lose meaning.
func TestRowsScanDestinations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.csv")
	if err := os.WriteFile(path, []byte("7,2.5,x\n8,3.5,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Options{})
	if err := e.Attach("S", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	rows, err := e.QueryRows(context.Background(), "select a1, a2, a3 from S limit 1")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if err := rows.Scan(new(int64), new(float64), new(string)); err == nil {
		t.Error("Scan before Next should fail")
	}
	if !rows.Next() {
		t.Fatal(rows.Err())
	}
	var (
		i64   int64
		i     int
		f     float64
		b     bool
		s     string
		a1    any
		a2    any
		a3    any
		v     storage.Value
		fromI float64
	)
	if err := rows.Scan(&i64, &f, &s); err != nil || i64 != 7 || f != 2.5 || s != "x" {
		t.Fatalf("Scan = %d, %g, %q (%v)", i64, f, s, err)
	}
	if err := rows.Scan(&i, &a2, &a3); err != nil || i != 7 || a2 != 2.5 || a3 != "x" {
		t.Fatalf("Scan = %d, %v, %v (%v)", i, a2, a3, err)
	}
	if err := rows.Scan(&b, &s, &v); err != nil || !b || s != "2.5" || v.Typ != schema.String || v.S != "x" {
		t.Fatalf("Scan = %v, %q, %+v (%v)", b, s, v, err)
	}
	if err := rows.Scan(&fromI, &a1, &a1); err != nil || fromI != 7 {
		t.Fatalf("int into *float64 = %g (%v)", fromI, err)
	}
	for _, dest := range [][]any{
		{&a1, &i64, &a1},        // float into *int64
		{&a1, &i, &a1},          // float into *int
		{&a1, &b, &a1},          // float into *bool
		{&a1, &a1, &f},          // string into *float64
		{&a1, &a1, new([]byte)}, // unsupported destination
		{&a1, &a1},              // wrong arity
	} {
		if err := rows.Scan(dest...); err == nil {
			t.Errorf("Scan(%T...) should fail", dest[len(dest)-1])
		}
	}
}

// TestFlightLeaderClosedBeforeNext: a singleflight leader whose cursor is
// closed before its first Next still ends its flight, so every follower
// waiting on it goes on to the right answer instead of hanging, and no
// structure stays pinned.
func TestFlightLeaderClosedBeforeNext(t *testing.T) {
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads, ResultCacheBytes: 1 << 20})
	linkTable(t, e, "T", 4000) // a1 is a permutation of 0..3999
	const q = "select count(*), sum(a1) from T where a1 < 1000"

	leader, err := e.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	const followers = 6
	answers := make(chan string, followers)
	for i := 0; i < followers; i++ {
		go func() {
			res, err := e.Query(q)
			if err != nil {
				answers <- err.Error()
				return
			}
			answers <- fmt.Sprint(res.Rows)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the followers join the flight
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "[[1000 499500]]" // closed form: 0 + 1 + ... + 999
	for i := 0; i < followers; i++ {
		select {
		case got := <-answers:
			if got != want {
				t.Fatalf("follower answered %s, want %s", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a follower of a leader closed before Next never answered")
		}
	}
	if pinned := e.MemStats().Pinned; pinned != 0 {
		t.Fatalf("%d bytes still pinned after every cursor ended", pinned)
	}
}

// streamBytes drains a cursor the way /v1/query/stream encodes it, a
// batch at a time from the typed vectors, and returns the rows' NDJSON
// and the plan text.
func streamBytes(t *testing.T, e *Engine, q string) ([]byte, string) {
	t.Helper()
	rows, err := e.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out []byte
	for {
		cols, sel, n := NextBatch(rows)
		if n == 0 {
			break
		}
		if out, err = storage.AppendJSONCols(out, cols, sel, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out, rows.Stats().Plan
}

// TestCachedReplayMatchesStream: a result-cache hit replays through the
// same cursor and encodes to exactly the miss's NDJSON — for an empty
// result, a LIMIT cutting a batch, and mixed int, float and string
// columns — and a result over the per-entry bound is never cached.
func TestCachedReplayMatchesStream(t *testing.T) {
	var csv strings.Builder
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&csv, "%d,%g,name \"%d\" é\n", i, float64(i)*0.37-50, i%17)
	}
	path := writeFile(t, t.TempDir(), "m.csv", csv.String())
	for _, pol := range []plan.Policy{plan.PolicyColumnLoads, plan.PolicyPartialV1} {
		t.Run(pol.String(), func(t *testing.T) {
			e := newEngine(t, Options{Policy: pol, ResultCacheBytes: 4 << 20})
			if err := e.Attach("M", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			res, err := e.Query("select a3, a2, a1 from M limit 1")
			if err != nil {
				t.Fatal(err)
			}
			if r := res.Rows[0]; r[0].Typ != schema.String || r[1].Typ != schema.Float64 || r[2].Typ != schema.Int64 {
				t.Fatalf("column types %v %v %v, want string, float, int", r[0].Typ, r[1].Typ, r[2].Typ)
			}
			for _, q := range []string{
				"select a1, a2, a3 from M where a1 < 0",
				"select a1, a3 from M where a1 >= 10 limit 1500",
				"select a3, a2, a1 from M where a1 >= 100",
			} {
				miss, missPlan := streamBytes(t, e, q)
				hit, hitPlan := streamBytes(t, e, q)
				if strings.Contains(missPlan, "result cache hit") || !strings.Contains(hitPlan, "result cache hit") {
					t.Fatalf("%s: want a miss then a hit; plans:\n%s\n---\n%s", q, missPlan, hitPlan)
				}
				if !bytes.Equal(hit, miss) {
					t.Fatalf("%s: the hit's NDJSON (%d bytes) differs from the miss's (%d bytes)", q, len(hit), len(miss))
				}
				if strings.Contains(q, "limit") && bytes.Count(hit, []byte("\n")) != 1500 {
					t.Fatalf("%s: %d rows", q, bytes.Count(hit, []byte("\n")))
				}
			}
		})
	}

	// 2900 rows of three columns are far over a quarter of 64 KiB.
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads, ResultCacheBytes: 64 << 10})
	if err := e.Attach("M", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	const big = "select a3, a2, a1 from M where a1 >= 100"
	first, _ := streamBytes(t, e, big)
	second, plan := streamBytes(t, e, big)
	if strings.Contains(plan, "result cache hit") || !bytes.Equal(first, second) {
		t.Fatalf("an oversized result was replayed, or its answer changed; plan:\n%s", plan)
	}
	if st := e.ResultCacheStats(); st.Entries != 0 || st.Inserts != 0 {
		t.Fatalf("an oversized result was cached: %+v", st)
	}
}
