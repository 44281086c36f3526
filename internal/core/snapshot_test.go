package core

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nodb/internal/csvgen"
	"nodb/internal/plan"
)

// snapFiles returns the snapshot/spill files currently in dir.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out = append(out, filepath.Join(dir, e.Name()))
	}
	return out
}

const warmQuery = "select sum(a1), avg(a2) from R where a1 > 15 and a1 < 45"

// TestWarmRestartRoundTrip is the tentpole path: learn, close, reopen,
// and answer from the snapshot without touching the raw file.
func TestWarmRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := writeFile(t, dir, "r.csv", basicCSV)

	e1 := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cache})
	if err := e1.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	want, err := e1.Query(warmQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatalf("close (snapshot write): %v", err)
	}
	if len(snapFiles(t, cache)) == 0 {
		t.Fatal("close left no snapshot files")
	}

	e2 := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cache})
	defer e2.Close()
	if err := e2.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	got, err := e2.Query(warmQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].I != want.Rows[0][0].I || got.Rows[0][1].F != want.Rows[0][1].F {
		t.Fatalf("warm result %v, want %v", got.Rows[0], want.Rows[0])
	}
	w := got.Stats.Work
	if w.RawBytesRead != 0 {
		t.Errorf("warm first query read %d raw bytes, want 0 (served from snapshot)", w.RawBytesRead)
	}
	if w.SnapshotBytesRead == 0 {
		t.Error("warm first query read no snapshot bytes")
	}
	if st := e2.SnapStats(); st.Hits == 0 {
		t.Errorf("snapshot stats show no hit: %+v", st)
	}
}

// TestWarmRestartPartialV2 covers sparse columns and coverage regions: a
// retained partial load must survive the restart and keep answering
// repeat queries without touching the raw file.
func TestWarmRestartPartialV2(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := writeFile(t, dir, "r.csv", basicCSV)
	q := "select sum(a2) from R where a1 > 15 and a1 < 45"

	e1 := NewEngine(Options{Policy: plan.PolicyPartialV2, CacheDir: cache})
	if err := e1.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	want, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Second run is served from the store (covered region).
	if res, err := e1.Query(q); err != nil || res.Stats.Work.RawBytesRead != 0 {
		t.Fatalf("pre-restart repeat not covered: err=%v raw=%d", err, res.Stats.Work.RawBytesRead)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(Options{Policy: plan.PolicyPartialV2, CacheDir: cache})
	defer e2.Close()
	if err := e2.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	got, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].I != want.Rows[0][0].I {
		t.Fatalf("warm result %v, want %v", got.Rows[0], want.Rows[0])
	}
	if got.Stats.Work.RawBytesRead != 0 {
		t.Errorf("restored coverage did not serve the query: %d raw bytes read", got.Stats.Work.RawBytesRead)
	}
}

// TestCorruptSnapshotFallsBackCold is the crash-safety contract: a
// snapshot damaged mid-section (torn write, bit rot, truncation) must
// yield a logged, counted invalidation and a cold start — never a query
// error, never a wrong result.
func TestCorruptSnapshotFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := writeFile(t, dir, "r.csv", basicCSV)

	e1 := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cache})
	if err := e1.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	want, err := e1.Query(warmQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	files := snapFiles(t, cache)
	if len(files) == 0 {
		t.Fatal("no snapshot written")
	}
	for i, mode := range []string{"corrupt", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			// Re-damage from a clean copy each time: rewrite the snapshot.
			e := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cache})
			if err := e.Attach("R", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Query(warmQuery); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			snap := snapFiles(t, cache)[0]
			data, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "corrupt":
				// Flip every byte from mid-file on: whatever sections the
				// query reads are guaranteed damaged.
				for off := len(data) / 3; off < len(data); off++ {
					data[off] ^= 0xff
				}
			case "truncate":
				data = data[:len(data)/3+i]
			}
			if err := os.WriteFile(snap, data, 0o644); err != nil {
				t.Fatal(err)
			}

			var logBuf bytes.Buffer
			log.SetOutput(&logBuf)
			defer log.SetOutput(os.Stderr)

			e2 := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cache})
			defer e2.Close()
			if err := e2.Attach("R", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			got, err := e2.Query(warmQuery)
			if err != nil {
				t.Fatalf("damaged snapshot surfaced an error to the query path: %v", err)
			}
			if got.Rows[0][0].I != want.Rows[0][0].I || got.Rows[0][1].F != want.Rows[0][1].F {
				t.Fatalf("damaged snapshot produced wrong result %v, want %v", got.Rows[0], want.Rows[0])
			}
			if got.Stats.Work.RawBytesRead == 0 {
				// Damage may have landed in a section this query does not
				// read; the result check above is the hard guarantee. But if
				// the dense sections died, the query must have re-read raw.
				t.Log("query served without raw reads: damage fell outside its sections")
			}
			if st := e2.SnapStats(); st.Invalidations == 0 {
				t.Errorf("damage was not counted as an invalidation: %+v", st)
			} else if logBuf.Len() == 0 {
				t.Error("invalidation was not logged")
			}
		})
	}
}

// TestStaleSnapshotInvalidatedOnEdit: editing the raw file between
// processes must discard the old snapshot and answer from the new data.
func TestStaleSnapshotInvalidatedOnEdit(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := writeFile(t, dir, "r.csv", basicCSV)

	e1 := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cache})
	if err := e1.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Query("select sum(a1) from R"); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Edit the file: same shape, different values.
	if err := os.WriteFile(path, []byte("11,1,1,1\n21,1,1,1\n31,1,1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cache})
	defer e2.Close()
	if err := e2.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	res, err := e2.Query("select sum(a1) from R")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 63 {
		t.Fatalf("sum over edited file = %v, want 63 (stale snapshot served?)", res.Rows[0][0])
	}
	if st := e2.SnapStats(); st.Invalidations == 0 {
		t.Errorf("stale snapshot was not invalidated: %+v", st)
	}
}

// TestEvictionSpillsAndReadmits: under a tight budget with a cache dir,
// evicting the positional map spills it to disk, and the next load
// re-admits it instead of re-learning.
func TestEvictionSpillsAndReadmits(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := filepath.Join(dir, "big.csv")
	if err := csvgen.EnsureFile(path, csvgen.Spec{Rows: 4000, Cols: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(Options{
		Policy:              plan.PolicyColumnLoads,
		CacheDir:            cache,
		MemoryBudget:        100 << 10, // far below the 8-column working set
		DisableRevalidation: true,
	})
	defer e.Close()
	if err := e.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	// Cycle every attribute so the governor must keep evicting.
	var want [8]int64
	for pass := 0; pass < 2; pass++ {
		for a := 1; a <= 8; a++ {
			res, err := e.Query(fmt.Sprintf("select sum(a%d) from R", a))
			if err != nil {
				t.Fatalf("pass %d a%d: %v", pass, a, err)
			}
			got := res.Rows[0][0].I
			if pass == 0 {
				want[a-1] = got
			} else if got != want[a-1] {
				t.Fatalf("a%d changed across eviction/spill cycles: %d vs %d", a, got, want[a-1])
			}
			if used := e.Governor().Used(); used > 100<<10 {
				t.Fatalf("governed bytes %d exceed budget after query", used)
			}
		}
	}
	st := e.SnapStats()
	if st.Spills == 0 {
		t.Errorf("tight budget with a cache dir produced no spills: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("spilled structures were never re-admitted: %+v", st)
	}
}

// TestExplainShowsSnapshotCounters: Explain surfaces the cache activity.
func TestExplainShowsSnapshotCounters(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "r.csv", basicCSV)
	e := NewEngine(Options{CacheDir: filepath.Join(dir, "cache")})
	defer e.Close()
	if err := e.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Explain("select sum(a1) from R")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "snapshot: hits=") {
		t.Fatalf("Explain output lacks snapshot counters:\n%s", out)
	}
	// Without a cache dir the line must be absent.
	e2 := NewEngine(Options{})
	defer e2.Close()
	if err := e2.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	out2, err := e2.Explain("select sum(a1) from R")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "snapshot:") {
		t.Fatalf("Explain shows snapshot counters without a cache dir:\n%s", out2)
	}
}

// TestSaveSnapshotsPeriodic: SaveSnapshots persists without closing, and
// a snapshot taken mid-life restores in a fresh engine.
func TestSaveSnapshotsPeriodic(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := writeFile(t, dir, "r.csv", basicCSV)

	e1 := NewEngine(Options{CacheDir: cache})
	if err := e1.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	want, err := e1.Query(warmQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SaveSnapshots(); err != nil {
		t.Fatal(err)
	}
	if len(snapFiles(t, cache)) == 0 {
		t.Fatal("SaveSnapshots wrote nothing")
	}
	// Simulate a crash: no Close-time snapshot.
	e1.cat.DropAll()

	e2 := NewEngine(Options{CacheDir: cache})
	defer e2.Close()
	if err := e2.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	got, err := e2.Query(warmQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].I != want.Rows[0][0].I {
		t.Fatalf("post-crash restore result %v, want %v", got.Rows[0], want.Rows[0])
	}
	if got.Stats.Work.RawBytesRead != 0 {
		t.Errorf("flushed snapshot not used: %d raw bytes read", got.Stats.Work.RawBytesRead)
	}
}

// TestConcurrentQueriesUnderSpill races many clients against a tight
// budget with the disk tier on: restores, spills and re-admissions
// interleave, and every answer must stay correct (run under -race).
func TestConcurrentQueriesUnderSpill(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := filepath.Join(dir, "big.csv")
	if err := csvgen.EnsureFile(path, csvgen.Spec{Rows: 2000, Cols: 6, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{
		Policy:              plan.PolicyColumnLoads,
		CacheDir:            cache,
		MemoryBudget:        64 << 10,
		DisableRevalidation: true,
	})
	defer e.Close()
	if err := e.Attach("R", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	// Ground truth per column, computed single-threaded first.
	want := make([]int64, 6)
	for a := 1; a <= 6; a++ {
		res, err := e.Query(fmt.Sprintf("select sum(a%d) from R", a))
		if err != nil {
			t.Fatal(err)
		}
		want[a-1] = res.Rows[0][0].I
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				a := (g+i)%6 + 1
				res, err := e.Query(fmt.Sprintf("select sum(a%d) from R", a))
				if err != nil {
					errs <- err
					return
				}
				if got := res.Rows[0][0].I; got != want[a-1] {
					errs <- fmt.Errorf("a%d = %d, want %d", a, got, want[a-1])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
