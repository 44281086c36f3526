package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	if err := e.Link("S", path); err != nil {
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
