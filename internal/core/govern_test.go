package core

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nodb/internal/csvgen"
	"nodb/internal/plan"
)

// TestBudgetWorkloadCorrectness is the acceptance scenario: a workload
// that touches more columns than fit in the budget completes with correct
// results, the governed adaptive state returns under the budget after
// every query, and a re-query of an evicted column transparently rebuilds
// it from the raw file.
func TestBudgetWorkloadCorrectness(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.csv")
	const rows, cols = 20_000, 6
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: cols, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// One dense int64 column is rows*8 = 160 KB; budget fits ~2.5 columns
	// (plus the positional map), far less than the 6-column working set.
	const budget = 400_000
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads, MemoryBudget: budget})
	defer e.Close()
	if err := e.Attach("W", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	// Reference sums from an unbudgeted engine.
	ref := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	defer ref.Close()
	if err := ref.Attach("W", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, cols)
	for c := 0; c < cols; c++ {
		res, err := ref.Query(fmt.Sprintf("select sum(a%d) from W", c+1))
		if err != nil {
			t.Fatal(err)
		}
		want[c] = res.Rows[0][0].I
	}

	// Two passes over every column: the second pass re-touches columns the
	// first pass's evictions removed.
	for pass := 0; pass < 2; pass++ {
		for c := 0; c < cols; c++ {
			res, err := e.Query(fmt.Sprintf("select sum(a%d) from W", c+1))
			if err != nil {
				t.Fatalf("pass %d col %d: %v", pass, c, err)
			}
			if got := res.Rows[0][0].I; got != want[c] {
				t.Fatalf("pass %d sum(a%d) = %d, want %d", pass, c+1, got, want[c])
			}
			if used := e.Governor().Used(); used > budget {
				t.Fatalf("pass %d col %d: governed bytes %d exceed budget %d after query", pass, c, used, budget)
			}
		}
	}
	st := e.MemStats()
	if st.Evictions == 0 {
		t.Fatal("workload over budget should have evicted something")
	}
	if st.Budget != budget {
		t.Fatalf("budget = %d, want %d", st.Budget, budget)
	}
	if s := e.Counters().Snapshot(); s.Evictions != st.Evictions || s.EvictedBytes != st.EvictedBytes {
		t.Fatalf("metrics (%d, %d) disagree with governor (%d, %d)",
			s.Evictions, s.EvictedBytes, st.Evictions, st.EvictedBytes)
	}
}

// TestBudgetRetainedPartialLoads runs the same over-budget scenario under
// the retaining partial-load policy: sparse columns and their coverage
// regions must be evicted coherently (a region never outlives its data).
func TestBudgetRetainedPartialLoads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.csv")
	const rows, cols = 20_000, 6
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: cols, Seed: 10}); err != nil {
		t.Fatal(err)
	}
	const budget = 300_000
	e := newEngine(t, Options{Policy: plan.PolicyPartialV2, MemoryBudget: budget})
	defer e.Close()
	if err := e.Attach("P", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	// Wide predicates retain most of each touched column.
	for pass := 0; pass < 2; pass++ {
		for c := 0; c < cols; c++ {
			q := fmt.Sprintf("select sum(a%d) from P where a%d >= 0", c+1, c+1)
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("pass %d col %d: %v", pass, c, err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("pass %d col %d: rows = %d", pass, c, len(res.Rows))
			}
			if used := e.Governor().Used(); used > budget {
				t.Fatalf("pass %d col %d: governed bytes %d exceed budget %d", pass, c, used, budget)
			}
		}
	}
	if e.MemStats().Evictions == 0 {
		t.Fatal("retained partial loads over budget should have evicted")
	}
}

// TestEvictionDuringConcurrentCursor streams a cursor over a pinned dense
// column while a second workload drives the governor into eviction. The
// pinned column must never be chosen as a victim while the cursor is
// open, and every streamed row must be correct. Run under -race in CI.
func TestEvictionDuringConcurrentCursor(t *testing.T) {
	dir := t.TempDir()
	apath := filepath.Join(dir, "a.csv")
	bpath := filepath.Join(dir, "b.csv")
	const rows = 10_000
	if err := csvgen.WriteFile(apath, csvgen.Spec{Rows: rows, Cols: 2, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if err := csvgen.WriteFile(bpath, csvgen.Spec{Rows: rows, Cols: 6, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	// Budget holds A's two columns plus roughly one of B's: every B query
	// forces evictions while A streams.
	const budget = 260_000
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads, MemoryBudget: budget})
	defer e.Close()
	if err := e.Attach("A", TableSpec{Path: apath}); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach("B", TableSpec{Path: bpath}); err != nil {
		t.Fatal(err)
	}

	// Load A's column and learn the expected values.
	res, err := e.Query("select a1 from A")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 0, rows)
	for _, r := range res.Rows {
		want = append(want, r[0].I)
	}

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Readers: stream full cursors over A's pinned column while evictions
	// happen; every value must match.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				rows, err := e.QueryRows(context.Background(), "select a1 from A")
				if err != nil {
					errs <- err
					return
				}
				i := 0
				for rows.Next() {
					var v int64
					if err := rows.Scan(&v); err != nil {
						rows.Close()
						errs <- err
						return
					}
					if i < len(want) && v != want[i] {
						rows.Close()
						errs <- fmt.Errorf("row %d = %d, want %d", i, v, want[i])
						return
					}
					i++
				}
				if err := rows.Close(); err != nil {
					errs <- err
					return
				}
				if i != len(want) {
					errs <- fmt.Errorf("streamed %d rows, want %d", i, len(want))
					return
				}
			}
		}()
	}

	// Pressure: cycle B's columns, each query exceeding the budget and
	// forcing the governor to evict.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 3; iter++ {
			for c := 1; c <= 6; c++ {
				if _, err := e.Query(fmt.Sprintf("select sum(a%d) from B", c)); err != nil {
					errs <- fmt.Errorf("pressure a%d: %w", c, err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if e.MemStats().Evictions == 0 {
		t.Fatal("pressure workload should have evicted under budget")
	}
}

// TestExplainShowsPins verifies EXPLAIN surfaces what the plan would pin.
func TestExplainShowsPins(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", basicCSV)
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	defer e.Close()
	if err := e.Attach("T", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	p, err := e.Explain("select sum(a1) from T where a2 > 100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "pin=[0 1]") {
		t.Fatalf("explain should show pinned columns: %q", p)
	}
}
