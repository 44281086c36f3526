package driver

import (
	"database/sql"
	"fmt"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nodb"
	"nodb/internal/csvgen"
)

// testDSN writes a synthetic CSV and returns a DSN linking it as table T.
func testDSN(t *testing.T, rows int, extra string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 4, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	dsn := "link=" + url.QueryEscape("T="+path)
	if extra != "" {
		dsn += "&" + extra
	}
	return dsn
}

// TestRoundTrip is the end-to-end acceptance path: sql.Open with a DSN,
// Prepare with ? placeholders, iterate *sql.Rows over a linked CSV.
func TestRoundTrip(t *testing.T) {
	db, err := sql.Open("nodb", testDSN(t, 1000, "policy=partial-v2"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}

	stmt, err := db.Prepare("select a1, a2 from T where a1 >= ? and a1 < ? order by a1")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	rows, err := stmt.Query(10, 15)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "a1" || cols[1] != "a2" {
		t.Fatalf("columns = %v, want [a1 a2]", cols)
	}

	var got []int64
	for rows.Next() {
		var a1, a2 int64
		if err := rows.Scan(&a1, &a2); err != nil {
			t.Fatal(err)
		}
		got = append(got, a1)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 11, 12, 13, 14}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}

	// Aggregates through QueryerContext (no explicit Prepare).
	var sum, count int64
	err = db.QueryRow("select sum(a1), count(*) from T where a1 < ?", 100).Scan(&sum, &count)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 99*100/2 || count != 100 {
		t.Fatalf("sum=%d count=%d, want %d/%d", sum, count, 99*100/2, 100)
	}
}

// TestQueryRowTypes covers float and string round-trips plus bool/[]byte
// argument binding.
func TestQueryRowTypes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mix.csv")
	spec := csvgen.Spec{
		Rows: 100, Cols: 3, Seed: 7,
		ColSpecs: []csvgen.ColSpec{
			{Kind: csvgen.SequentialInts},
			{Kind: csvgen.Floats, Max: 10},
			{Kind: csvgen.Strings},
		},
	}
	if err := csvgen.WriteFile(path, spec); err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("nodb", "link="+url.QueryEscape("M="+path))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var a1 int64
	var a2 float64
	var a3 string
	if err := db.QueryRow("select a1, a2, a3 from M where a1 = ?", 5).Scan(&a1, &a2, &a3); err != nil {
		t.Fatal(err)
	}
	if a1 != 5 || a2 < 0 || a2 >= 10 || a3 == "" {
		t.Fatalf("row = %d %v %q", a1, a2, a3)
	}
}

// TestConcurrentPreparedQueries exercises one prepared statement from many
// goroutines over pooled connections (run with -race in CI).
func TestConcurrentPreparedQueries(t *testing.T) {
	db, err := sql.Open("nodb", testDSN(t, 2000, "policy=partial-v2"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stmt, err := db.Prepare("select sum(a1), count(*) from T where a1 >= ? and a1 < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				lo := int64((w*5 + i) * 7 % 1000)
				hi := lo + 50
				var sum, count int64
				if err := stmt.QueryRow(lo, hi).Scan(&sum, &count); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				wantSum := (hi - 1 + lo) * 50 / 2
				if count != 50 || sum != wantSum {
					errs <- fmt.Errorf("worker %d: sum=%d count=%d, want %d/50", w, sum, count, wantSum)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLimitReadsFewerRawBytes asserts the cursor's early termination
// end-to-end through database/sql: a LIMIT-bounded query reads fewer raw
// bytes than the unbounded equivalent of the same pass.
func TestLimitReadsFewerRawBytes(t *testing.T) {
	dsn := testDSN(t, 30000, "policy=partial-v1&chunk=4096")
	drv := &Driver{}
	connector, err := drv.OpenConnector(dsn)
	if err != nil {
		t.Fatal(err)
	}
	db := sql.OpenDB(connector.(*Connector))
	defer db.Close()
	engine := connector.(*Connector).DB()

	readRows := func(query string) int64 {
		t.Helper()
		before := engine.Work().RawBytesRead
		rows, err := db.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			var a1, a2 int64
			if err := rows.Scan(&a1, &a2); err != nil {
				t.Fatal(err)
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		return engine.Work().RawBytesRead - before
	}

	full := readRows("select a1, a2 from T where a1 >= 0")
	limited := readRows("select a1, a2 from T where a1 >= 0 limit 5")
	if limited == 0 {
		t.Fatal("limited query read no raw bytes")
	}
	if limited*2 >= full {
		t.Fatalf("LIMIT 5 read %d of %d raw bytes; want an early stop", limited, full)
	}
}

// TestReadOnlyAndTx: Exec and transactions are rejected.
func TestReadOnlyAndTx(t *testing.T) {
	db, err := sql.Open("nodb", testDSN(t, 10, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("select a1 from T"); err == nil {
		t.Fatal("Exec succeeded; want read-only error")
	}
	if _, err := db.Begin(); err == nil {
		t.Fatal("Begin succeeded; want unsupported error")
	}
}

// TestDSNErrors: malformed DSNs fail at sql.Open/Ping time.
func TestDSNErrors(t *testing.T) {
	for _, dsn := range []string{
		"link=bad",              // not NAME=PATH
		"policy=warp",           // unknown policy
		"mem=-1",                // negative budget
		"evict=random",          // unknown eviction policy
		"nope=1",                // unknown key
		"link=T%3D/no/such.csv", // missing file
	} {
		db, err := sql.Open("nodb", dsn)
		if err == nil {
			err = db.Ping()
			db.Close()
		}
		if err == nil {
			t.Errorf("DSN %q: want error", dsn)
		}
	}
}

// TestDSNSplitDirRemoved: split files are no longer an engine policy, so
// the old splitdir key is an unknown key like any other.
func TestDSNSplitDirRemoved(t *testing.T) {
	_, err := ParseDSNConfig("splitdir=/tmp/sf")
	if err == nil || !strings.Contains(err.Error(), `unknown DSN key "splitdir"`) {
		t.Fatalf("splitdir DSN: err = %v, want the unknown-key error", err)
	}
}

// TestCloseReleasesEngine: sql.DB.Close closes the shared engine, after
// which the native handle reports ErrClosed.
func TestCloseReleasesEngine(t *testing.T) {
	drv := &Driver{}
	connector, err := drv.OpenConnector(testDSN(t, 10, ""))
	if err != nil {
		t.Fatal(err)
	}
	db := sql.OpenDB(connector.(*Connector))
	var n int64
	if err := db.QueryRow("select count(*) from T").Scan(&n); err != nil || n != 10 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := connector.(*Connector).DB().Ping(); err != nodb.ErrClosed {
		t.Fatalf("Ping after Close = %v, want ErrClosed", err)
	}
}

// TestDSNMemoryBudget drives an over-budget workload through database/sql:
// queries stay correct while the governor keeps adaptive state bounded.
func TestDSNMemoryBudget(t *testing.T) {
	db, err := sql.Open("nodb", testDSN(t, 5000, "mem=100000&evict=lru"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for pass := 0; pass < 2; pass++ {
		for c := 1; c <= 4; c++ {
			var n int64
			q := fmt.Sprintf("select count(*) from T where a%d >= 0", c)
			if err := db.QueryRow(q).Scan(&n); err != nil {
				t.Fatalf("pass %d a%d: %v", pass, c, err)
			}
			if n != 5000 {
				t.Fatalf("pass %d a%d: count = %d, want 5000", pass, c, n)
			}
		}
	}
}

// TestDSNCacheDir drives a warm restart through database/sql: the first
// sql.DB learns and snapshots on Close, the second answers the same query
// without touching the raw file.
func TestDSNCacheDir(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := filepath.Join(dir, "t.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 2000, Cols: 4, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	dsn := "link=" + url.QueryEscape("T="+path) + "&cachedir=" + url.QueryEscape(cache)

	open := func() (*sql.DB, *nodb.DB) {
		t.Helper()
		connector, err := (&Driver{}).OpenConnector(dsn)
		if err != nil {
			t.Fatal(err)
		}
		return sql.OpenDB(connector.(*Connector)), connector.(*Connector).DB()
	}

	db1, _ := open()
	var want int64
	if err := db1.QueryRow("select sum(a2) from T").Scan(&want); err != nil {
		t.Fatal(err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2, engine := open()
	defer db2.Close()
	var got int64
	if err := db2.QueryRow("select sum(a2) from T").Scan(&got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("warm result %d, want %d", got, want)
	}
	w := engine.Work()
	if w.RawBytesRead != 0 {
		t.Errorf("warm query read %d raw bytes, want 0", w.RawBytesRead)
	}
	if st := engine.SnapStats(); !st.Enabled || st.Hits == 0 {
		t.Errorf("snapshot stats = %+v, want enabled with a hit", st)
	}
}
