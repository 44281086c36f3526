package nodb

// Differential tests for the scan synopsis: portion pruning must be
// invisible in results. Every query in the matrix runs on a synopsis
// engine and a synopsis-disabled twin; answers must be byte-identical,
// including after the raw file is edited (stale synopses self-invalidate
// through the catalog's signature check).

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nodb/internal/csvgen"
)

// writeClusteredTable writes rows with a sorted int column (a1, the
// pruning target), a shuffled int column (a2), a float column (a3) and a
// clustered string column (a4) — the shapes zone maps care about.
func writeClusteredTable(t *testing.T, path string, rows int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		sb.Reset()
		shuffled := (i*7919 + 13) % rows
		fmt.Fprintf(&sb, "%d,%d,%d.%02d,w%06d\n", i, shuffled, i%500, i%97, i/10)
		if _, err := f.WriteString(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// resultKey renders a result order-insensitively (parallel scans emit in
// portion order; SQL without ORDER BY promises no order).
func resultKey(t *testing.T, r *Result) string {
	t.Helper()
	lines := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		var sb strings.Builder
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(r.Columns, ",") + "\n" + strings.Join(lines, "\n")
}

var synopsisDiffQueries = []string{
	// Selective ranges on the clustered column: the pruning sweet spot.
	"select a1, a2 from t where a1 >= 100 and a1 < 160",
	"select sum(a2) from t where a1 between 5000 and 5100",
	"select count(*) from t where a1 = 4242",
	"select count(*) from t where a1 = -5",
	"select max(a1) from t where a1 < 50",
	// Predicates on the shuffled column: bounds exist but rarely prune.
	"select count(*) from t where a2 < 10",
	// Floats and strings.
	"select count(*) from t where a3 >= 499.0",
	"select a1 from t where a4 = 'w000123'",
	"select count(*) from t where a4 > 'w999999'",
	// Multi-predicate conjunctions, <> residuals, wide scans.
	"select sum(a1) from t where a1 >= 1000 and a1 < 1200 and a2 <> 3",
	"select avg(a2) from t where a1 >= 0",
	"select a2 from t where a1 = 777 limit 1",
}

func synopsisDiffPolicies() []Options {
	return []Options{
		{Policy: PartialLoadsV1},
		{Policy: PartialLoadsV2},
		{Policy: Auto},
		{Policy: ColumnLoads},
	}
}

// TestSynopsisPrunedMatchesUnpruned is the PR's correctness invariant:
// identical answers with and without pruning, across policies, with a
// chunk size small enough that the table splits into many portions.
func TestSynopsisPrunedMatchesUnpruned(t *testing.T) {
	const rows = 12000
	path := filepath.Join(t.TempDir(), "t.csv")
	writeClusteredTable(t, path, rows)

	for _, base := range synopsisDiffPolicies() {
		base := base
		t.Run(base.Policy.String(), func(t *testing.T) {
			withSyn := base
			withSyn.ChunkSize = 4 << 10
			noSyn := withSyn
			noSyn.DisableSynopsis = true

			a := Open(withSyn)
			defer a.Close()
			b := Open(noSyn)
			defer b.Close()
			if err := a.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			if err := b.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}

			// Two passes over the matrix: the first learns (and already
			// prunes what the previous queries taught), the second prunes
			// aggressively from a warm synopsis.
			for pass := 0; pass < 2; pass++ {
				for _, q := range synopsisDiffQueries {
					ra, err := a.Query(q)
					if err != nil {
						t.Fatalf("pass %d %q (synopsis): %v", pass, q, err)
					}
					rb, err := b.Query(q)
					if err != nil {
						t.Fatalf("pass %d %q (no synopsis): %v", pass, q, err)
					}
					if ka, kb := resultKey(t, ra), resultKey(t, rb); ka != kb {
						t.Fatalf("pass %d %q: pruned result differs\npruned:\n%s\nunpruned:\n%s", pass, q, ka, kb)
					}
				}
			}
			if base.Policy == PartialLoadsV1 {
				// The scanning policy must actually have pruned something,
				// or this test proves nothing.
				if skipped := a.Work().PortionsSkipped; skipped == 0 {
					t.Fatal("synopsis engine never skipped a portion; pruning is not engaging")
				}
				ts, err := a.TableStats("t")
				if err != nil {
					t.Fatal(err)
				}
				if ts.SynopsisPortions < 2 {
					t.Fatalf("SynopsisPortions = %d; want a multi-portion layout", ts.SynopsisPortions)
				}
			}
		})
	}
}

// TestSynopsisStaleInvalidation edits the raw file after the synopsis has
// learned bounds; the signature check must drop the stale synopsis and
// answers must reflect the new file — identically with and without
// pruning.
func TestSynopsisStaleInvalidation(t *testing.T) {
	const rows = 8000
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeClusteredTable(t, path, rows)

	a := Open(Options{Policy: PartialLoadsV1, ChunkSize: 4 << 10})
	defer a.Close()
	b := Open(Options{Policy: PartialLoadsV1, ChunkSize: 4 << 10, DisableSynopsis: true})
	defer b.Close()
	for _, db := range []*DB{a, b} {
		if err := db.Attach("t", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
	}

	warm := "select count(*) from t where a1 >= 0"
	sel := "select sum(a2) from t where a1 >= 7000 and a1 < 7100"
	for _, db := range []*DB{a, b} {
		for _, q := range []string{warm, sel} {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.Work().PortionsSkipped == 0 {
		t.Fatal("no pruning before the edit; the invalidation test would be vacuous")
	}

	// Rewrite the file: the old a1 range [7000,7100) moves bytes and
	// values (every a1 shifts by +100000), so stale bounds would skip
	// portions that now qualify.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(f, "%d,%d,%d.%02d,x%06d\n", i+100000, i, i%500, i%97, i/10)
	}
	f.Close()

	q2 := "select count(*) from t where a1 >= 107000 and a1 < 107100"
	ra, err := a.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	if ka, kb := resultKey(t, ra), resultKey(t, rb); ka != kb {
		t.Fatalf("post-edit results differ:\npruned:\n%s\nunpruned:\n%s", ka, kb)
	}
	if got := ra.Rows[0][0].I; got != 100 {
		t.Fatalf("post-edit count = %d, want 100 (stale synopsis served old bounds?)", got)
	}
	// The old range must now be empty under both engines.
	rOld, err := a.Query("select count(*) from t where a1 >= 0 and a1 < 100")
	if err != nil {
		t.Fatal(err)
	}
	if got := rOld.Rows[0][0].I; got != 0 {
		t.Fatalf("old-range count after edit = %d, want 0", got)
	}
}

// TestSynopsisSurvivesRestart: with a cache dir, the learned synopsis is
// snapshotted on Close and restored on the first query after reopen — the
// very first selective query of the new process prunes portions without
// any prior pass.
func TestSynopsisSurvivesRestart(t *testing.T) {
	const rows = 12000
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	cache := filepath.Join(dir, "cache")
	writeClusteredTable(t, path, rows)

	opts := Options{Policy: PartialLoadsV1, ChunkSize: 4 << 10, CacheDir: cache}
	db := Open(opts)
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query("select sum(a2) from t where a1 >= 6000 and a1 < 6100")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := db.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.SynopsisPortions < 2 {
		t.Fatalf("pre-restart SynopsisPortions = %d; want a multi-portion layout", ts.SynopsisPortions)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(opts)
	defer db2.Close()
	if err := db2.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	got, err := db2.Query("select sum(a2) from t where a1 >= 6000 and a1 < 6100")
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(t, got) != resultKey(t, want) {
		t.Fatalf("post-restart result differs:\n%s\nvs\n%s", resultKey(t, got), resultKey(t, want))
	}
	w := db2.Work()
	if w.SynopsisHits == 0 || w.PortionsSkipped == 0 {
		t.Fatalf("first query after restart pruned nothing (hits=%d skipped=%d); synopsis did not survive", w.SynopsisHits, w.PortionsSkipped)
	}
	ts2, err := db2.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts2.SynopsisPortions != ts.SynopsisPortions || ts2.SynopsisBounds == 0 {
		t.Fatalf("restored synopsis shape %d/%d, want %d portions with bounds", ts2.SynopsisPortions, ts2.SynopsisBounds, ts.SynopsisPortions)
	}
}

// TestPositionalLoadFeedsSynopsis: a positional column load commits
// per-portion bounds for the columns it loads, like a plain load, so a
// later selective scan on a clustered column it loaded skips portions —
// with answers byte-identical to an engine that prunes nothing.
func TestPositionalLoadFeedsSynopsis(t *testing.T) {
	const rows = 50_000
	path := filepath.Join(t.TempDir(), "t.csv")
	spec := csvgen.Spec{Rows: rows, Cols: 6, Seed: 3, ColSpecs: []csvgen.ColSpec{{}, {}, {}, {Kind: csvgen.SequentialInts}}}
	if err := csvgen.WriteFile(path, spec); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"select sum(a1) from t where a2 < 25000", // loads a1, a2 and records their positions
		"select sum(a3) from t where a4 >= 0",    // positional load of a3, a4 from a2's positions
		"select sum(a5), count(*) from t where a4 between 20000 and 20500",
	}
	run := func(opts Options) []string {
		opts.Policy, opts.ChunkSize = ColumnLoads, 64<<10
		db := Open(opts)
		defer db.Close()
		if err := db.Attach("t", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for i, q := range queries {
			if i == 2 {
				// A scan that can prune: a selective predicate on a4.
				db.SetPolicy(PartialLoadsV1)
			}
			st, err := db.TableStats("t")
			if err != nil {
				t.Fatal(err)
			}
			before := db.Work()
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			keys = append(keys, resultKey(t, res))
			if opts.DisableSynopsis {
				continue
			}
			w := db.Work().Sub(before)
			after, err := db.TableStats("t")
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 1:
				if w.PosMapHits != rows {
					t.Fatalf("%q: %d posmap hits, want %d: the load was not positional", q, w.PosMapHits, rows)
				}
				if got, want := after.SynopsisBounds-st.SynopsisBounds, 2*after.SynopsisPortions; got != want {
					t.Errorf("%q: synopsis bounds grew by %d, want %d (portions x loaded columns)", q, got, want)
				}
			case 2:
				if w.PortionsSkipped == 0 {
					t.Errorf("%q: skipped no portion", q)
				}
			}
		}
		return keys
	}
	pruned, unpruned := run(Options{}), run(Options{DisableSynopsis: true})
	for i, q := range queries {
		if pruned[i] != unpruned[i] {
			t.Errorf("%q: pruned answer differs:\n%s\nwant\n%s", q, pruned[i], unpruned[i])
		}
	}
}
