package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nodb/internal/csvgen"
	"nodb/internal/plan"
	"nodb/internal/storage"
)

func linkTable(t *testing.T, e *Engine, name string, rows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 4, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach(name, TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRowsIterationMatchesBufferedResult: the cursor and the buffered path
// agree, under every policy.
func TestRowsIterationMatchesBufferedResult(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			e := NewEngine(Options{Policy: pol})
			linkTable(t, e, "T", 500)
			const q = "select a1, a3 from T where a1 >= 100 and a1 < 120 order by a1"

			res, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}

			rows, err := e.QueryRows(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			i := 0
			for rows.Next() {
				var a1, a3 int64
				if err := rows.Scan(&a1, &a3); err != nil {
					t.Fatal(err)
				}
				if a1 != res.Rows[i][0].I || a3 != res.Rows[i][1].I {
					t.Fatalf("row %d: cursor (%d,%d) != buffered (%v,%v)", i, a1, a3, res.Rows[i][0], res.Rows[i][1])
				}
				i++
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			if i != len(res.Rows) || i != 20 {
				t.Fatalf("cursor yielded %d rows, buffered %d, want 20", i, len(res.Rows))
			}
			if rows.Stats().Plan == "" {
				t.Error("cursor stats missing plan")
			}
		})
	}
}

// TestNextBatchMatchesNext: draining with NextBatch — interleaved with
// Next, which leaves a batch partly consumed — yields exactly the rows
// and order of the buffered Result, then reports end-of-rows like Next,
// under every policy (streaming partial-v1 and external included) and
// across several batches, filtered and dense.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			e := NewEngine(Options{Policy: pol})
			linkTable(t, e, "T", 3000)
			for _, q := range []string{
				"select a1, a2 from T where a1 >= 100 and a1 < 2700",
				"select a2, a1 from T",
			} {
				res, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := e.QueryRows(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				var got [][]storage.Value
				batches := 0
				for step := 0; ; step++ {
					if step%3 == 2 { // a lone Next splits the batch it lands in
						if !rows.Next() {
							break
						}
						got = append(got, rows.Row())
						continue
					}
					cols, sel, n := NextBatch(rows)
					if n == 0 {
						break
					}
					batches++
					for k := 0; k < n; k++ {
						i := k
						if sel != nil {
							i = int(sel[k])
						}
						row := make([]storage.Value, len(cols))
						for j, c := range cols {
							row[j] = c.Value(i)
						}
						got = append(got, row)
					}
					var x, y int64
					if err := rows.Scan(&x, &y); err != nil {
						t.Fatal(err)
					}
					if last := got[len(got)-1]; x != last[0].I || y != last[1].I {
						t.Fatalf("Scan after NextBatch = (%d,%d), want the batch's last row %v", x, y, last)
					}
				}
				if err := rows.Err(); err != nil {
					t.Fatal(err)
				}
				if _, _, n := NextBatch(rows); n != 0 || rows.Next() {
					t.Fatal("cursor yields rows after end-of-rows")
				}
				if batches < 2 {
					t.Fatalf("drained in %d batches; the test needs several", batches)
				}
				if len(got) != len(res.Rows) || len(got) < 2600 {
					t.Fatalf("%s: NextBatch yielded %d rows, buffered %d", q, len(got), len(res.Rows))
				}
				for i := range got {
					if got[i][0] != res.Rows[i][0] || got[i][1] != res.Rows[i][1] {
						t.Fatalf("row %d: NextBatch %v != buffered %v", i, got[i], res.Rows[i])
					}
				}
				if rows.Stats().Plan == "" {
					t.Error("cursor stats missing plan")
				}
				rows.Close()
			}
		})
	}
}

// TestRowsLimitStopsScanEarly: under a scanning policy, LIMIT n terminates
// the raw-file pass after the first chunks instead of finishing it.
//
// The bound: beyond the portion-layout pre-pass, LIMIT 5 reads less than a
// quarter of the file. A parallel pass (Workers > 1) counts the rows of
// every portion before it tokenizes the first one. partial-v1 learns that
// layout once and keeps it in the synopsis; external keeps nothing, so it
// re-counts the whole file on every parallel pass, by design. The pre-pass
// is measured as what a steady-state full pass reads beyond the file size
// (0 for partial-v1, and 0 for external at GOMAXPROCS=1) and subtracted.
func TestRowsLimitStopsScanEarly(t *testing.T) {
	for _, pol := range []plan.Policy{plan.PolicyPartialV1, plan.PolicyExternal} {
		t.Run(pol.String(), func(t *testing.T) {
			e := NewEngine(Options{Policy: pol, ChunkSize: 4096})
			path := linkTable(t, e, "big", 40000)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}

			run := func(q string) int64 {
				before := e.Counters().Snapshot().RawBytesRead
				if _, err := e.Query(q); err != nil {
					t.Fatal(err)
				}
				return e.Counters().Snapshot().RawBytesRead - before
			}
			const q = "select a1, a2 from big where a1 >= 0"
			run(q) // learns the layout, where the policy keeps one
			full := run(q)
			limited := run(q + " limit 5")

			prepass := full - st.Size()
			if prepass < 0 {
				t.Fatalf("full pass read %d of %d bytes", full, st.Size())
			}
			data := limited - prepass
			t.Logf("LIMIT 5 read %d bytes beyond a %d-byte pre-pass, of a %d-byte file", data, prepass, st.Size())
			if data <= 0 {
				t.Fatalf("limited query read %d bytes, no more than the %d-byte layout pre-pass", limited, prepass)
			}
			if data*4 >= st.Size() {
				t.Fatalf("LIMIT 5 read %d raw bytes beyond a %d-byte layout pre-pass, of a %d-byte file; want early termination",
					data, prepass, st.Size())
			}
		})
	}
}

// TestRowsCloseStopsScanMidIteration: closing a cursor after a few rows
// cancels the query; the scan stops between chunks.
func TestRowsCloseStopsScanMidIteration(t *testing.T) {
	e := NewEngine(Options{Policy: plan.PolicyPartialV1, ChunkSize: 4096})
	path := linkTable(t, e, "big", 40000)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the portion layout (one full pass) so the measured scan below
	// is a steady-state pass with no one-time row-count pre-pass.
	if _, err := e.Query("select count(*) from big"); err != nil {
		t.Fatal(err)
	}

	before := e.Counters().Snapshot().RawBytesRead
	rows, err := e.QueryRows(context.Background(), "select a1 from big where a1 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after early stop: %v", err)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after early Close = %v, want nil", err)
	}
	read := e.Counters().Snapshot().RawBytesRead - before
	if read == 0 {
		t.Fatal("cursor never touched the raw file")
	}
	if read >= st.Size() {
		t.Fatalf("closed cursor read %d of %d raw bytes; want a mid-pass stop", read, st.Size())
	}
}

// TestRowsLimitZero yields no rows but no error.
func TestRowsLimitZero(t *testing.T) {
	e := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	linkTable(t, e, "T", 100)
	rows, err := e.QueryRows(context.Background(), "select a1 from T limit 0")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Next() {
		t.Fatal("LIMIT 0 yielded a row")
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedStatements: placeholders bind as typed values and execute
// repeatedly; arity and validity are checked.
func TestPreparedStatements(t *testing.T) {
	e := NewEngine(Options{Policy: plan.PolicyPartialV2})
	linkTable(t, e, "T", 1000)

	stmt, err := e.Prepare("select sum(a1), count(*) from T where a1 >= ? and a1 < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if stmt.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", stmt.NumParams())
	}

	for lo := int64(0); lo < 500; lo += 100 {
		res, err := stmt.Query(lo, lo+100)
		if err != nil {
			t.Fatal(err)
		}
		wantSum := (lo + lo + 99) * 100 / 2
		if res.Rows[0][0].I != wantSum || res.Rows[0][1].I != 100 {
			t.Fatalf("[%d,%d): sum=%v count=%v, want %d/100", lo, lo+100, res.Rows[0][0], res.Rows[0][1], wantSum)
		}
	}

	if _, err := stmt.Query(1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := stmt.Query(1, struct{}{}); err == nil {
		t.Fatal("unsupported argument type accepted")
	}
	if _, err := e.Prepare("select nope from T"); err == nil {
		t.Fatal("Prepare accepted an unknown column")
	}
	if _, err := e.Prepare("select a1 from missing where a1 = ?"); err == nil {
		t.Fatal("Prepare accepted an unknown table")
	}
}

// TestPreparedStatementInjectionSafe: an argument is always a value, never
// SQL text — a malicious string matches literally (and matches nothing).
func TestPreparedStatementInjectionSafe(t *testing.T) {
	e := NewEngine(Options{})
	path := filepath.Join(t.TempDir(), "s.csv")
	spec := csvgen.Spec{
		Rows: 50, Cols: 2, Seed: 3,
		ColSpecs: []csvgen.ColSpec{{Kind: csvgen.SequentialInts}, {Kind: csvgen.Strings}},
	}
	if err := csvgen.WriteFile(path, spec); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach("S", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	stmt, err := e.Prepare("select count(*) from S where a2 = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query("x' or '1'='1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != 0 {
		t.Fatalf("injection-shaped argument matched %d rows, want 0", got)
	}
}

// TestPlanCache: repeated preparations and ad-hoc queries of one statement
// parse once; differently-spelled equivalents share the entry.
func TestPlanCache(t *testing.T) {
	e := NewEngine(Options{})
	linkTable(t, e, "T", 50)

	q := "select a1 from T where a1 < ?"
	if _, err := e.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare("SELECT  a1  FROM T   WHERE a1 < ?"); err != nil {
		t.Fatal(err)
	}
	hits, _, size := e.PlanCacheStats()
	if size != 1 {
		t.Fatalf("cache size = %d, want 1 (normalization failed)", size)
	}
	if hits == 0 {
		t.Fatal("second preparation missed the cache")
	}
	// String literals must stay case-sensitive in the key.
	if _, err := e.Query("select count(*) from T where a1 = 1"); err != nil {
		t.Fatal(err)
	}
	_, _, size = e.PlanCacheStats()
	if size != 2 {
		t.Fatalf("cache size = %d, want 2", size)
	}
}

// TestEngineClose: Close is idempotent, fails new work with ErrClosed,
// releases loaded state, and aborts in-flight cursors.
func TestEngineClose(t *testing.T) {
	e := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	linkTable(t, e, "T", 1000)
	if _, err := e.Query("select sum(a1) from T"); err != nil {
		t.Fatal(err)
	}
	if e.Catalog().MemSize() == 0 {
		t.Fatal("expected loaded state before Close")
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if got := e.Catalog().MemSize(); got != 0 {
		t.Fatalf("MemSize after Close = %d, want 0", got)
	}

	if _, err := e.Query("select sum(a1) from T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := e.Prepare("select a1 from T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prepare after Close = %v, want ErrClosed", err)
	}
	if _, err := e.Explain("select a1 from T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Explain after Close = %v, want ErrClosed", err)
	}
	if err := e.Attach("U", TableSpec{Path: "/nonexistent.csv"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Attach after Close = %v, want ErrClosed", err)
	}
	if err := e.Detach("T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Detach after Close = %v, want ErrClosed", err)
	}
	if _, err := e.Refresh("T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Refresh after Close = %v, want ErrClosed", err)
	}
	if err := e.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClosed", err)
	}
}

// TestEngineCloseAbortsInFlightCursor: Close cancels a cursor mid-stream;
// the consumer sees an error end, not a hang.
func TestEngineCloseAbortsInFlightCursor(t *testing.T) {
	e := NewEngine(Options{Policy: plan.PolicyPartialV1, ChunkSize: 4096})
	linkTable(t, e, "big", 40000)

	rows, err := e.QueryRows(context.Background(), "select a1 from big where a1 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for rows.Next() {
		}
	}()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after engine Close = %v, want context.Canceled", err)
	}
	rows.Close()
}

// TestConcurrentCursorsAndPreparedStatements drives the new surface the
// way the server does — many goroutines, one engine — for the -race job.
func TestConcurrentCursorsAndPreparedStatements(t *testing.T) {
	e := NewEngine(Options{Policy: plan.PolicyPartialV2})
	linkTable(t, e, "T", 4000)

	stmt, err := e.Prepare("select a1 from T where a1 >= ? and a1 < ?")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				lo := int64((w + i) * 100 % 3000)
				rows, err := stmt.QueryRows(context.Background(), lo, lo+100)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				n := 0
				for rows.Next() {
					n++
					if n == 3 && i%2 == 0 {
						break // exercise early Close under concurrency
					}
				}
				if err := rows.Close(); err != nil {
					errs <- fmt.Errorf("worker %d close: %w", w, err)
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
