package nodb

// Result-cache correctness tests: a cached answer must be byte-identical
// to the uncached one under every policy, an edited raw file must never
// be answered from stale cache, and singleflight followers must unwind
// cleanly when their context is canceled mid-collapse.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDifferentialResultCache repeats a randomized workload (with
// repetition, so the cache actually serves hits) against cached and
// uncached engines across the policy matrix and demands identical rows.
func TestDifferentialResultCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	const rows, cols = 2000, 5
	const maxVal = 1000
	writeRandomTable(t, path, rows, cols, maxVal, 131)

	rng := rand.New(rand.NewSource(17))
	base := make([]string, 12)
	for i := range base {
		base[i] = randomQuery(rng, cols, maxVal)
	}
	// Repeat every query three times so the second and third executions
	// are cache hits in the cached engines.
	var queries []string
	for r := 0; r < 3; r++ {
		queries = append(queries, base...)
	}

	configs := []diffConfig{
		{"uncached", Options{Policy: PartialLoadsV2}},
		{"cached", Options{Policy: PartialLoadsV2, ResultCacheBytes: 32 << 20}},
		{"cached+budget", Options{Policy: ColumnLoads, ResultCacheBytes: 32 << 20, MemoryBudget: 1 << 20}},
		{"cached+lru", Options{Policy: PartialLoadsV1, ResultCacheBytes: 32 << 20, MemoryBudget: 1 << 20, EvictionPolicy: "lru"}},
		{"cached+tiny", Options{Policy: PartialLoadsV2, ResultCacheBytes: 4 << 10}},
	}
	results := make([][]string, len(configs))
	for ci, cfg := range configs {
		db := Open(cfg.opts)
		if err := db.Attach("t", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: query %d (%s): %v", cfg.name, qi, q, err)
			}
			var row []string
			for _, v := range res.Rows[0] {
				row = append(row, v.String())
			}
			results[ci] = append(results[ci], strings.Join(row, "|"))
		}
		if ci == 1 {
			if st := db.ResultCacheStats(); st.Hits == 0 {
				t.Errorf("%s: repeated workload produced no cache hits: %+v", cfg.name, st)
			}
		}
		db.Close()
	}
	for ci := 1; ci < len(configs); ci++ {
		for qi := range queries {
			if results[ci][qi] != results[0][qi] {
				t.Errorf("%s disagrees with uncached on query %d (%s):\n  %s\n  %s",
					configs[ci].name, qi, queries[qi], results[ci][qi], results[0][qi])
			}
		}
	}
}

// TestResultCacheInvalidationOnEdit pins the implicit-invalidation
// contract: editing the raw file changes its signature, so the next
// query recomputes instead of replaying the stale cached answer.
func TestResultCacheInvalidationOnEdit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("1,10\n2,20\n3,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open(Options{ResultCacheBytes: 1 << 20})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	const q = "select sum(a2), count(*) from t"
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 60 {
		t.Fatalf("initial sum = %v, want 60", res.Rows[0][0])
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 60 {
		t.Fatalf("repeat sum = %v, want 60", res.Rows[0][0])
	}
	if st := db.ResultCacheStats(); st.Hits != 1 {
		t.Fatalf("repeat query missed the cache: %+v", st)
	}

	// Grow the file (size change guarantees a new signature even within
	// mtime granularity).
	if err := os.WriteFile(path, []byte("1,10\n2,20\n3,30\n4,40\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 100 || res.Rows[0][1].I != 4 {
		t.Fatalf("post-edit result = %v, want sum 100 count 4 (stale cache?)", res.Rows[0])
	}
}

// TestResultCacheBoundArgsAndOversized checks two key-correctness
// properties: a parameterized statement is cached under its *bound*
// constants (different arguments never share an entry), and a result
// beyond the per-entry bound is refused.
func TestResultCacheBoundArgsAndOversized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i*2)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open(Options{ResultCacheBytes: 8 << 10})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	const pq = "select sum(a1) from t where a1 < ?"
	for i, want := range map[int64]int64{100: 4950, 50: 1225} {
		res, err := db.QueryContext(context.Background(), pq, i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != want {
			t.Fatalf("sum(a1) where a1 < %d = %v, want %d (cross-arg cache hit?)", i, res.Rows[0][0], want)
		}
		// Same query, same arg: must hit and still answer for *these* args.
		res, err = db.QueryContext(context.Background(), pq, i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != want {
			t.Fatalf("cached sum(a1) where a1 < %d = %v, want %d", i, res.Rows[0][0], want)
		}
	}
	if st := db.ResultCacheStats(); st.Hits != 2 || st.Inserts != 2 {
		t.Fatalf("bound-arg caching stats: %+v, want 2 hits over 2 distinct entries", st)
	}
	preOversized := db.ResultCacheStats()

	// A full-row projection of all 200 rows exceeds maxEntry (8KiB/4 = 2KiB).
	for i := 0; i < 2; i++ {
		if _, err := db.Query("select a1, a2 from t where a1 >= 0"); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.ResultCacheStats(); st.Inserts != preOversized.Inserts {
		t.Fatalf("oversized result admitted: %+v", st)
	}
}

// TestSingleflightFollowerCancellation races identical concurrent
// queries — some of whose contexts are canceled mid-flight — and checks
// canceled followers unwind with ctx.Err while survivors get correct
// answers. Run with -race this doubles as the collapse-path race test.
func TestSingleflightFollowerCancellation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 20000, 3, 1000, 7)

	db := Open(Options{Policy: PartialLoadsV1, ResultCacheBytes: 16 << 20, Workers: 1})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	const q = "select sum(a1), sum(a2), count(*) from t where a3 >= 0"
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 4; round++ {
		// A fresh predicate constant each round defeats the result cache,
		// forcing the burst through the singleflight path.
		rq := fmt.Sprintf("select sum(a1), sum(a2), count(*) from t where a3 >= 0 and a1 >= -%d", round+1)
		const n = 8
		var wg sync.WaitGroup
		errs := make([]error, n)
		sums := make([]int64, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx := context.Background()
				if i%2 == 1 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					// Cancel at staggered points: immediately, or a moment in.
					if i%4 == 1 {
						cancel()
					} else {
						time.AfterFunc(time.Duration(i)*100*time.Microsecond, cancel)
					}
					defer cancel()
				}
				res, err := db.QueryContext(ctx, rq)
				errs[i] = err
				if err == nil {
					sums[i] = res.Rows[0][0].I
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			switch {
			case errs[i] == nil:
				if sums[i] != want.Rows[0][0].I {
					t.Fatalf("round %d goroutine %d: sum = %d, want %d", round, i, sums[i], want.Rows[0][0].I)
				}
			case errors.Is(errs[i], context.Canceled):
				if i%2 == 0 {
					t.Fatalf("round %d goroutine %d: canceled without a canceled context", round, i)
				}
			default:
				t.Fatalf("round %d goroutine %d: %v", round, i, errs[i])
			}
		}
		// Uncanceled goroutines must always succeed.
		for i := 0; i < n; i += 2 {
			if errs[i] != nil {
				t.Fatalf("round %d goroutine %d (no cancel): %v", round, i, errs[i])
			}
		}
	}
}

func TestOpenErrValidation(t *testing.T) {
	bad := []Options{
		{EvictionPolicy: "mystery"},
		{MemoryBudget: -1},
		{ResultCacheBytes: -1},
		{Tenants: []TenantConfig{{Name: "", Key: "k"}}},
		{Tenants: []TenantConfig{{Name: "a", Key: "k"}, {Name: "a", Key: "k2"}}},
		{Tenants: []TenantConfig{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}},
		{Tenants: []TenantConfig{{Name: "a", Key: "k", Weight: -2}}},
	}
	for i, opts := range bad {
		if db, err := OpenErr(opts); err == nil {
			db.Close()
			t.Errorf("case %d: OpenErr accepted %+v", i, opts)
		}
	}
	db, err := OpenErr(Options{
		EvictionPolicy:   "lru",
		ResultCacheBytes: 1 << 20,
		Tenants:          []TenantConfig{{Name: "a", Key: "ka", Weight: 2}, {Name: "b", Key: "kb"}},
	})
	if err != nil {
		t.Fatalf("OpenErr rejected valid options: %v", err)
	}
	db.Close()
}
