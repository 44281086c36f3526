package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"nodb/internal/csvgen"
	"nodb/internal/plan"
)

// TestConcurrentQueriesSameTable exercises the paper's §5.4 concurrency
// scenario: multiple queries racing to load (and reuse) the same columns
// of the same table must all see correct answers.
func TestConcurrentQueriesSameTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv")
	const rows = 4000
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 4, Seed: 41}); err != nil {
		t.Fatal(err)
	}

	for _, pol := range []plan.Policy{plan.PolicyColumnLoads, plan.PolicyPartialV2, plan.PolicyAuto} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			e := NewEngine(Options{Policy: pol})
			if err := e.Attach("G", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			// Columns hold permutations of 0..rows-1, so sum over the
			// full range is known in closed form.
			fullSum := int64(rows) * int64(rows-1) / 2

			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						res, err := e.Query("select sum(a1), count(*) from G where a1 >= 0")
						if err != nil {
							errs <- fmt.Errorf("worker %d: %w", w, err)
							return
						}
						if res.Rows[0][0].I != fullSum || res.Rows[0][1].I != rows {
							errs <- fmt.Errorf("worker %d: sum=%v count=%v", w, res.Rows[0][0], res.Rows[0][1])
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
		})
	}
}

// TestConcurrentQueriesDistinctTables runs parallel workloads on separate
// tables sharing one engine (and its counters).
func TestConcurrentQueriesDistinctTables(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	const n = 4
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("t%d.csv", i))
		if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 1000, Cols: 2, Seed: int64(50 + i)}); err != nil {
			t.Fatal(err)
		}
		if err := e.Attach(fmt.Sprintf("t%d", i), TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for q := 0; q < 10; q++ {
				res, err := e.Query(fmt.Sprintf("select count(*) from t%d", i))
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].I != 1000 {
					errs <- fmt.Errorf("t%d count = %v", i, res.Rows[0][0])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
