package core

// Append-growth tests: appending rows to a raw file must extend the
// learned structures over the tail instead of invalidating them, and a
// grown table must answer every query exactly like a cold engine that
// opened the grown file from scratch — the differential contract of the
// append-aware refresh path.

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"nodb/internal/plan"
	"nodb/internal/vfs"
)

// writeGrowableTable writes rows of cols int64 attributes in [0, maxVal)
// in the given format and returns the path plus the byte offset that cuts
// the file after prefixRows complete rows.
func writeGrowableTable(t *testing.T, path, format string, rows, prefixRows, cols int, maxVal, seed int64) (string, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	cut := -1
	for i := 0; i < rows; i++ {
		if i == prefixRows {
			cut = sb.Len()
		}
		if format == "ndjson" {
			sb.WriteByte('{')
			for c := 0; c < cols; c++ {
				if c > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `"a%d":%d`, c+1, rng.Int63n(maxVal))
			}
			sb.WriteString("}\n")
		} else {
			for c := 0; c < cols; c++ {
				if c > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%d", rng.Int63n(maxVal))
			}
			sb.WriteByte('\n')
		}
	}
	if cut < 0 {
		t.Fatalf("prefixRows %d out of range", prefixRows)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return sb.String(), cut
}

func appendTail(t *testing.T, path, tail string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(tail); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendQueries exercises full-column aggregates (dense state), selective
// ranges (positional map, partial loads, coverage regions), an
// out-of-range predicate (synopsis pruning must skip the tail portion
// only when its zone maps allow it) and grouping.
func appendQueries(maxVal int64) []string {
	return []string{
		"select count(*) from T",
		"select sum(a1), min(a2), max(a3) from T",
		fmt.Sprintf("select sum(a2), count(*) from T where a1 between %d and %d", maxVal/4, maxVal/2),
		fmt.Sprintf("select count(*), sum(a2) from T where a1 > %d", maxVal*10),
		"select a1, count(*) from T where a2 > 100 and a1 < 25 group by a1 order by a1 limit 10",
	}
}

func resultStrings(t *testing.T, e *Engine, queries []string) []string {
	t.Helper()
	var out []string
	for _, q := range queries {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var rows []string
		for _, r := range res.Rows {
			var vals []string
			for _, v := range r {
				vals = append(vals, v.String())
			}
			rows = append(rows, strings.Join(vals, ","))
		}
		out = append(out, strings.Join(rows, ";"))
	}
	return out
}

func TestAppendGrowthDifferential(t *testing.T) {
	const rows, prefixRows, cols = 3000, 2700, 4
	const maxVal, seed = 1000, 42
	cases := []struct {
		format   string
		policy   plan.Policy
		noPosMap bool // run with DisablePositionalMap
	}{
		{"csv", plan.PolicyColumnLoads, false},
		{"csv", plan.PolicyPartialV2, false},
		{"ndjson", plan.PolicyColumnLoads, false},
		{"ndjson", plan.PolicyPartialV2, false},
		{"csv", plan.PolicyColumnLoads, true},
	}
	for _, tc := range cases {
		name := tc.format + "/" + tc.policy.String()
		if tc.noPosMap {
			name += "/noPosMap"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			work := dir + "/grow." + tc.format
			data, cut := writeGrowableTable(t, work, tc.format, rows, prefixRows, cols, maxVal, seed)
			if err := os.WriteFile(work, []byte(data[:cut]), 0o644); err != nil {
				t.Fatal(err)
			}
			queries := appendQueries(maxVal)

			e := NewEngine(Options{Policy: tc.policy, DisableRevalidation: true, DisablePositionalMap: tc.noPosMap})
			defer e.Close()
			if err := e.Attach("T", TableSpec{Path: work, Format: tc.format}); err != nil {
				t.Fatal(err)
			}
			// Warm up twice: the second pass runs over learned structures.
			resultStrings(t, e, queries)
			resultStrings(t, e, queries)
			preStats, err := e.TableStats("T")
			if err != nil {
				t.Fatal(err)
			}

			appendTail(t, work, data[cut:])
			tailBytes := int64(len(data) - cut)

			before := e.Counters().Snapshot()
			ref, err := e.Refresh("T")
			if err != nil {
				t.Fatal(err)
			}
			refreshWork := e.Counters().Snapshot().Sub(before)
			if !ref.Changed || !ref.Grown {
				t.Fatalf("refresh = %+v, want a grown change", ref)
			}
			if ref.RowsAdded != rows-prefixRows {
				t.Errorf("rows added = %d, want %d", ref.RowsAdded, rows-prefixRows)
			}
			if ref.TailBytes != tailBytes {
				t.Errorf("tail bytes = %d, want %d", ref.TailBytes, tailBytes)
			}
			if ref.Rows != rows {
				t.Errorf("rows after refresh = %d, want %d", ref.Rows, rows)
			}
			// The whole point: re-adaptation reads the appended tail, not
			// the file. (Slack for the chunked reader's final partial read.)
			if got := refreshWork.RawBytesRead; got > tailBytes+8192 {
				t.Errorf("refresh read %d raw bytes, want ~tail (%d)", got, tailBytes)
			}
			// The queries load a1..a3 whole: the tail pass tokenizes and
			// parses those three columns of every appended row, once, and
			// counts them like any other load.
			if tc.policy == plan.PolicyColumnLoads {
				const tailRows = rows - prefixRows
				if refreshWork.RowsTokenized != tailRows || refreshWork.AttrsTokenized != 3*tailRows || refreshWork.ValuesParsed != 3*tailRows {
					t.Errorf("refresh work: %d rows tokenized, %d attrs tokenized, %d values parsed; want %d, %d, %d",
						refreshWork.RowsTokenized, refreshWork.AttrsTokenized, refreshWork.ValuesParsed, tailRows, 3*tailRows, 3*tailRows)
				}
			}

			postStats, err := e.TableStats("T")
			if err != nil {
				t.Fatal(err)
			}
			// Prefix-scoped structures survive and extend.
			if preStats.PosMapEntries > 0 && postStats.PosMapEntries <= preStats.PosMapEntries {
				t.Errorf("posmap entries %d -> %d, want growth", preStats.PosMapEntries, postStats.PosMapEntries)
			}
			if len(postStats.DenseCols) < len(preStats.DenseCols) {
				t.Errorf("dense cols %v -> %v, want no loss", preStats.DenseCols, postStats.DenseCols)
			}
			if preStats.SynopsisPortions > 0 && postStats.SynopsisPortions != preStats.SynopsisPortions+1 {
				t.Errorf("synopsis portions %d -> %d, want one appended tail portion",
					preStats.SynopsisPortions, postStats.SynopsisPortions)
			}
			if tc.noPosMap && (preStats.PosMapEntries != 0 || postStats.PosMapEntries != 0) {
				t.Errorf("posmap entries %d -> %d with the positional map disabled, want 0 -> 0",
					preStats.PosMapEntries, postStats.PosMapEntries)
			}
			if postStats.Signature.Size != int64(len(data)) {
				t.Errorf("signature size = %d, want %d", postStats.Signature.Size, len(data))
			}

			warm := resultStrings(t, e, queries)

			cold := NewEngine(Options{Policy: tc.policy})
			defer cold.Close()
			if err := cold.Attach("T", TableSpec{Path: work, Format: tc.format}); err != nil {
				t.Fatal(err)
			}
			want := resultStrings(t, cold, queries)
			for i := range queries {
				if warm[i] != want[i] {
					t.Errorf("query %q: grown-table answer %q != cold answer %q", queries[i], warm[i], want[i])
				}
			}

			// Full-column aggregates over extended dense state must not
			// touch the raw file again.
			if tc.policy == plan.PolicyColumnLoads {
				res, err := e.Query(queries[1])
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Work.RawBytesRead != 0 {
					t.Errorf("post-growth dense aggregate read %d raw bytes, want 0", res.Stats.Work.RawBytesRead)
				}
			}
		})
	}
}

// tailFaultFS arms a one-shot FaultFS EIO on the raw file, after bytes
// more bytes of it are read, just before the first multi-byte read of it
// at or past offset at (0: disarmed). With at the start of an appended
// tail shorter than the signature's 4 KiB probes, only the tail pass
// makes such a read: the signature and growth checks read below the old
// size or one byte.
type tailFaultFS struct {
	*vfs.FaultFS
	name  string
	bytes int64
	at    atomic.Int64
	once  sync.Once
}

func (f *tailFaultFS) Open(name string) (vfs.File, error) {
	file, err := f.FaultFS.Open(name)
	if err != nil || !strings.Contains(name, f.name) {
		return file, err
	}
	return &tailFaultFile{File: file, fs: f}, nil
}

type tailFaultFile struct {
	vfs.File
	fs *tailFaultFS
}

func (ff *tailFaultFile) ReadAt(p []byte, off int64) (int, error) {
	if at := ff.fs.at.Load(); at > 0 && off >= at && len(p) > 1 {
		ff.fs.once.Do(func() {
			ff.fs.AddRule(vfs.Rule{Op: vfs.OpRead, PathContains: ff.fs.name, Err: syscall.EIO, AfterBytes: ff.fs.bytes})
		})
	}
	return ff.File.ReadAt(p, off)
}

// TestAppendTailPassFaultFallsBack: an I/O error in the middle of the tail
// pass installs nothing and falls back to full invalidation — Refresh
// reports a change that did not grow the table, no structure stays
// pinned, and the next queries answer like a cold engine.
func TestAppendTailPassFaultFallsBack(t *testing.T) {
	const rows, prefixRows, cols = 1000, 900, 4
	const maxVal = 1000
	for _, policy := range []plan.Policy{plan.PolicyColumnLoads, plan.PolicyPartialV2} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			work := dir + "/grow.csv"
			data, cut := writeGrowableTable(t, work, "csv", rows, prefixRows, cols, maxVal, 17)
			if err := os.WriteFile(work, []byte(data[:cut]), 0o644); err != nil {
				t.Fatal(err)
			}
			tailBytes := int64(len(data) - cut)
			if tailBytes >= 4096 {
				t.Fatalf("tail of %d bytes reaches the signature probes", tailBytes)
			}
			queries := appendQueries(maxVal)

			fs := &tailFaultFS{FaultFS: vfs.NewFaultFS(nil), name: "grow.csv", bytes: tailBytes / 2}
			e := NewEngine(Options{Policy: policy, DisableRevalidation: true, FS: fs})
			defer e.Close()
			if err := e.Attach("T", TableSpec{Path: work}); err != nil {
				t.Fatal(err)
			}
			resultStrings(t, e, queries)
			resultStrings(t, e, queries)

			appendTail(t, work, data[cut:])
			fs.at.Store(int64(cut))
			before := e.Counters().Snapshot()
			ref, err := e.Refresh("T")
			if err != nil {
				t.Fatalf("refresh: %v", err)
			}
			w := e.Counters().Snapshot().Sub(before)
			if got := fs.Injected.Load(); got != 1 {
				t.Fatalf("%d faults injected, want 1", got)
			}
			// The pass read half the tail, then failed.
			if w.RawBytesRead <= 0 || w.RawBytesRead >= tailBytes {
				t.Errorf("refresh read %d raw bytes, want some of the %d-byte tail", w.RawBytesRead, tailBytes)
			}
			if !ref.Changed || ref.Grown || ref.Rows != -1 {
				t.Errorf("refresh = %+v, want changed, not grown, rows -1", ref)
			}
			if pinned := e.Governor().Stats().Pinned; pinned != 0 {
				t.Errorf("%d bytes still pinned after a failed tail pass", pinned)
			}

			warm := resultStrings(t, e, queries)
			cold := NewEngine(Options{Policy: policy})
			defer cold.Close()
			if err := cold.Attach("T", TableSpec{Path: work}); err != nil {
				t.Fatal(err)
			}
			want := resultStrings(t, cold, queries)
			for i := range queries {
				if warm[i] != want[i] {
					t.Errorf("query %q: answer after the failed pass %q != cold answer %q", queries[i], warm[i], want[i])
				}
			}
		})
	}
}

// TestAppendPickedUpByQuery pins the default-revalidation path: with
// revalidation on, a plain query after an append folds the tail in on its
// own — no explicit Refresh — and still pays only the tail.
func TestAppendPickedUpByQuery(t *testing.T) {
	const rows, prefixRows, cols = 2000, 1800, 3
	dir := t.TempDir()
	work := dir + "/grow.csv"
	data, cut := writeGrowableTable(t, work, "csv", rows, prefixRows, cols, 500, 7)
	if err := os.WriteFile(work, []byte(data[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	defer e.Close()
	if err := e.Attach("T", TableSpec{Path: work}); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Query("select count(*) from T"); err != nil || res.Rows[0][0].I != prefixRows {
		t.Fatalf("prefix count: %v, %v", res, err)
	}

	appendTail(t, work, data[cut:])
	res, err := e.Query("select count(*) from T")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != rows {
		t.Fatalf("post-append count = %v, want %d", res.Rows[0][0], rows)
	}
	tailBytes := int64(len(data) - cut)
	if got := res.Stats.Work.RawBytesRead; got > tailBytes+8192 {
		t.Errorf("query after append read %d raw bytes, want ~tail (%d)", got, tailBytes)
	}
	ing, err := e.TableStats("T")
	if err != nil {
		t.Fatal(err)
	}
	if ing.Ingest.AppendedRows != int64(rows-prefixRows) || ing.Ingest.Refreshes != 1 {
		t.Errorf("ingest = %+v, want %d appended rows in 1 refresh", ing.Ingest, rows-prefixRows)
	}
}

// TestAppendAcrossSnapshotRestart pins the warm-restart contract for
// grown files: a snapshot taken before the append restores the prefix
// state, and only the tail is re-read on top of it.
func TestAppendAcrossSnapshotRestart(t *testing.T) {
	const rows, prefixRows, cols = 3000, 2700, 4
	dir := t.TempDir()
	work := dir + "/grow.csv"
	cacheDir := dir + "/cache"
	data, cut := writeGrowableTable(t, work, "csv", rows, prefixRows, cols, 1000, 99)
	if err := os.WriteFile(work, []byte(data[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}
	queries := appendQueries(1000)

	e1 := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cacheDir, DisableRevalidation: true})
	if err := e1.Attach("T", TableSpec{Path: work}); err != nil {
		t.Fatal(err)
	}
	resultStrings(t, e1, queries)
	if err := e1.Close(); err != nil { // snapshot flushes here
		t.Fatal(err)
	}

	appendTail(t, work, data[cut:])
	tailBytes := int64(len(data) - cut)

	e2 := NewEngine(Options{Policy: plan.PolicyColumnLoads, CacheDir: cacheDir})
	defer e2.Close()
	if err := e2.Attach("T", TableSpec{Path: work}); err != nil {
		t.Fatal(err)
	}
	before := e2.Counters().Snapshot()
	warm := resultStrings(t, e2, queries)
	work2 := e2.Counters().Snapshot().Sub(before)
	// The restart restores the prefix from the snapshot and scans only
	// the appended tail — far less than the full file.
	if work2.RawBytesRead > tailBytes+8192 {
		t.Errorf("warm restart of grown file read %d raw bytes, want ~tail (%d of %d total)",
			work2.RawBytesRead, tailBytes, len(data))
	}

	cold := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	defer cold.Close()
	if err := cold.Attach("T", TableSpec{Path: work}); err != nil {
		t.Fatal(err)
	}
	want := resultStrings(t, cold, queries)
	for i := range queries {
		if warm[i] != want[i] {
			t.Errorf("query %q: restored+grown answer %q != cold answer %q", queries[i], warm[i], want[i])
		}
	}
}

func TestAttachRefreshDetachLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "r.csv", basicCSV)
	e := NewEngine(Options{DisableRevalidation: true})
	defer e.Close()

	if err := e.Attach("", TableSpec{Path: path}); err == nil {
		t.Error("attach without a name should fail")
	}
	if err := e.Attach("R", TableSpec{}); err == nil {
		t.Error("attach without a path should fail")
	}
	if err := e.Attach("R", TableSpec{Path: path, Format: "parquet"}); err == nil {
		t.Error("attach with an unknown format should fail")
	}

	if err := e.Attach("Events", TableSpec{Path: path, Format: "csv", Follow: true}); err != nil {
		t.Fatal(err)
	}
	if got := e.Followed(); len(got) != 1 || got[0] != "events" {
		t.Errorf("Followed = %v, want [events]", got)
	}

	// Unchanged file: a refresh is a no-op.
	ref, err := e.Refresh("events")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Changed || ref.Grown || ref.RowsAdded != 0 {
		t.Errorf("no-op refresh = %+v", ref)
	}
	if _, err := e.Refresh("nope"); err == nil {
		t.Error("refresh of unknown table should fail")
	}

	// Re-attach without Follow clears the mark.
	if err := e.Attach("events", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	if got := e.Followed(); len(got) != 0 {
		t.Errorf("Followed after re-attach = %v, want none", got)
	}

	if err := e.Detach("events"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("select count(*) from events"); err == nil {
		t.Error("detached table still queryable")
	}
	if err := e.Detach("events"); err == nil {
		t.Error("double detach should fail")
	}

	// The deprecated wrappers stay functional.
	if err := e.Attach("L", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	if err := e.Detach("L"); err != nil {
		t.Fatal(err)
	}
}
