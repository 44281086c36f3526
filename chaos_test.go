package nodb

// Chaos differential suite: seeded fault schedules injected under every
// disk-touching component via the vfs seam, with one invariant — a query
// under I/O faults either returns the byte-identical answer a clean run
// produces, or fails with a typed error from the taxonomy. Never a wrong
// answer, never a panic, never a governor leak. After the faults clear,
// the engine recovers to clean answers without a restart.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"nodb/internal/vfs"
)

// chaosTyped reports whether err is an acceptable failure under fault
// injection: a classified category from the taxonomy. Anything else — an
// unwrapped os.PathError, a parse error, a nil-pointer panic converted
// to an error — is a hardening gap and fails the suite.
func chaosTyped(err error) bool {
	return errors.Is(err, ErrRawIO) ||
		errors.Is(err, ErrFileShrunk) ||
		errors.Is(err, ErrDiskFull) ||
		errors.Is(err, ErrSnapshotCorrupt)
}

// chaosRow flattens the single aggregate result row for comparison.
func chaosRow(res *Result) string {
	var row []string
	for _, v := range res.Rows[0] {
		row = append(row, v.String())
	}
	return strings.Join(row, "|")
}

// chaosRule draws one random fault rule. Read-side faults (open, stat,
// read) apply everywhere; write-side faults are drawn only for
// configurations that write derived files (split files, snapshots), and
// inject ENOSPC — the write failure the engine promises to absorb.
func chaosRule(rng *rand.Rand, writes bool, fileSize int64) vfs.Rule {
	readErrs := []error{syscall.EIO, io.ErrUnexpectedEOF, fs.ErrPermission}
	r := vfs.Rule{Times: rng.Intn(4)}
	if rng.Intn(8) == 0 {
		r.Times = -1 // a persistent fault: every matching call fails
	}
	ops := []vfs.Op{vfs.OpOpen, vfs.OpStat, vfs.OpRead, vfs.OpRead}
	if writes {
		ops = append(ops, vfs.OpCreate, vfs.OpWrite, vfs.OpRename, vfs.OpMkdir)
	}
	r.Op = ops[rng.Intn(len(ops))]
	switch r.Op {
	case vfs.OpRead:
		r.Err = readErrs[rng.Intn(len(readErrs))]
		if rng.Intn(2) == 0 {
			r.AfterBytes = rng.Int63n(2 * fileSize) // byte-exact mid-scan fault
		}
	case vfs.OpOpen, vfs.OpStat:
		r.Err = readErrs[rng.Intn(len(readErrs))]
		r.AfterCalls = rng.Intn(4)
	default: // write-side
		r.Err = syscall.ENOSPC
		if r.Op == vfs.OpWrite && rng.Intn(2) == 0 {
			r.AfterBytes = rng.Int63n(4096) // torn write at a random offset
		}
	}
	return r
}

// TestChaosDifferential is the acceptance suite: >= 1000 fault-scheduled
// query executions across policies, each checked against a clean oracle.
func TestChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos run")
	}
	const rows, cols = 1500, 4
	const maxVal = 600
	const itersPerSeed = 55
	seeds := []int64{11, 23, 37, 53}

	type chaosConfig struct {
		name   string
		opts   func(dir string) Options
		writes bool // derived-file writes happen on the query path
		snap   bool // exercise explicit snapshot saves mid-storm
	}
	configs := []chaosConfig{
		{"columns", func(string) Options { return Options{Policy: ColumnLoads} }, false, false},
		{"partial-v2", func(string) Options { return Options{Policy: PartialLoadsV2} }, false, false},
		{"auto", func(string) Options { return Options{Policy: Auto} }, false, false},
		{"splitfiles", func(dir string) Options {
			return Options{Policy: SplitFiles, SplitDir: filepath.Join(dir, "sf")}
		}, true, false},
		{"columns+cache", func(dir string) Options {
			return Options{Policy: ColumnLoads, CacheDir: filepath.Join(dir, "cache"), MemoryBudget: 256 << 10}
		}, true, true},
	}

	executions, injected, failures := 0, int64(0), 0
	for _, seed := range seeds {
		dir := t.TempDir()
		path := filepath.Join(dir, "t.csv")
		writeRandomTable(t, path, rows, cols, maxVal, seed)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		fileSize := fi.Size()

		// Oracle: a clean full-load engine answers every query first.
		qrng := rand.New(rand.NewSource(seed * 101))
		queries := make([]string, 25)
		oracle := make(map[string]string, len(queries))
		ref := Open(Options{Policy: FullLoad})
		if err := ref.Attach("t", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			queries[i] = randomQuery(qrng, cols, maxVal)
			res, err := ref.Query(queries[i])
			if err != nil {
				t.Fatalf("oracle query %q: %v", queries[i], err)
			}
			oracle[queries[i]] = chaosRow(res)
		}
		ref.Close()

		for _, cfg := range configs {
			rng := rand.New(rand.NewSource(seed*1000 + int64(len(cfg.name))))
			ffs := vfs.NewFaultFS(nil)
			db := openFS(cfg.opts(dir), ffs)
			if err := db.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatalf("%s/seed %d: link: %v", cfg.name, seed, err)
			}

			for i := 0; i < itersPerSeed; i++ {
				ffs.Clear()
				ffs.AddRule(chaosRule(rng, cfg.writes, fileSize))
				if rng.Intn(3) == 0 {
					ffs.AddRule(chaosRule(rng, cfg.writes, fileSize))
				}
				q := queries[rng.Intn(len(queries))]
				res, err := db.Query(q)
				executions++
				if err != nil {
					failures++
					if !chaosTyped(err) {
						t.Errorf("%s/seed %d: query %q failed untyped: %v", cfg.name, seed, q, err)
					}
				} else if got := chaosRow(res); got != oracle[q] {
					t.Errorf("%s/seed %d: WRONG ANSWER under fault for %q:\n  got  %s\n  want %s",
						cfg.name, seed, q, got, oracle[q])
				}
				if p := db.MemStats().Pinned; p != 0 {
					t.Errorf("%s/seed %d: governor leak after query %q: pinned=%d", cfg.name, seed, q, p)
				}
				if cfg.snap && i%10 == 9 {
					if err := db.Snapshot(); err != nil && !chaosTyped(err) {
						t.Errorf("%s/seed %d: snapshot failed untyped: %v", cfg.name, seed, err)
					}
				}
			}
			injected += ffs.Injected.Load()

			// Recovery: faults gone, the engine must answer cleanly again
			// — whatever half-built state the storm left must have been
			// poisoned, not reused.
			ffs.Clear()
			for _, q := range queries[:10] {
				res, err := db.Query(q)
				if err != nil {
					t.Errorf("%s/seed %d: recovery query %q failed: %v", cfg.name, seed, q, err)
					continue
				}
				if got := chaosRow(res); got != oracle[q] {
					t.Errorf("%s/seed %d: recovery WRONG ANSWER for %q:\n  got  %s\n  want %s",
						cfg.name, seed, q, got, oracle[q])
				}
			}
			db.Close()
		}
	}
	if executions < 1000 {
		t.Errorf("suite ran %d fault-scheduled executions, acceptance floor is 1000", executions)
	}
	t.Logf("chaos: %d fault-scheduled executions, %d faults injected, %d typed failures", executions, injected, failures)
}

// TestChaosFileShrunkMidScan pins the shrink detector: a read that hits
// EOF before the size captured at open must fail ErrFileShrunk — the
// prefix-only aggregate it would otherwise return is a wrong answer.
func TestChaosFileShrunkMidScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 500, 3, 100, 9)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	ffs := vfs.NewFaultFS(nil)
	// Revalidation off so the injected EOF lands in the scan itself, not
	// in the per-query signature probe (which would re-detect instead).
	db := openFS(Options{Policy: FullLoad, Workers: 1, DisableRevalidation: true}, ffs)
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	// Every read past the midpoint reports EOF: the file "shrank" after
	// the scanner captured its size.
	ffs.AddRule(vfs.Rule{Op: vfs.OpRead, Err: io.EOF, AfterBytes: fi.Size() / 2, Times: -1})
	_, err = db.Query("select count(*), sum(a1) from t")
	if err == nil {
		t.Fatal("query over a shrunk file returned a result; a prefix-only answer is silent corruption")
	}
	if !errors.Is(err, ErrFileShrunk) {
		t.Fatalf("err = %v, want ErrFileShrunk", err)
	}
	ffs.Clear()
	if _, err := db.Query("select count(*) from t"); err != nil {
		t.Fatalf("recovery query failed: %v", err)
	}
}

// TestChaosSnapshotDegradedMode pins the disk-full contract: snapshot
// saves hitting ENOSPC flip the store to degraded memory-only operation,
// queries keep working, and a later successful save self-heals the flag.
func TestChaosSnapshotDegradedMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 300, 3, 100, 4)
	cache := filepath.Join(dir, "cache")

	ffs := vfs.NewFaultFS(nil)
	db := openFS(Options{Policy: ColumnLoads, CacheDir: cache}, ffs)
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("select sum(a1) from t"); err != nil {
		t.Fatal(err)
	}

	ffs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC, PathContains: "cache", Times: -1})
	ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Err: syscall.ENOSPC, PathContains: "cache", Times: -1})
	if err := db.Snapshot(); err == nil {
		t.Fatal("snapshot with a full disk must report failure")
	} else if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("snapshot err = %v, want ErrDiskFull", err)
	}
	if !db.SnapStats().Degraded {
		t.Fatal("store must report degraded after a disk-full save")
	}
	// Queries are unaffected by the dead disk tier.
	if _, err := db.Query("select count(*) from t"); err != nil {
		t.Fatalf("query during degraded mode failed: %v", err)
	}
	// Space comes back: the next save succeeds and clears the flag.
	ffs.Clear()
	if err := db.Snapshot(); err != nil {
		t.Fatalf("snapshot after recovery failed: %v", err)
	}
	if db.SnapStats().Degraded {
		t.Fatal("degraded flag must self-heal after a successful save")
	}
}

// TestChaosCrashRestartTorture kills snapshot persistence mid-write and
// corrupts what did land, then restarts on a clean filesystem: the new
// process must fall back to a cold start and answer correctly — leftover
// temp files, torn frames and bit flips never surface to queries.
func TestChaosCrashRestartTorture(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 800, 4, 300, 17)
	cache := filepath.Join(dir, "cache")

	queries := []string{
		"select count(*), sum(a1), min(a2), max(a3) from t",
		"select sum(a2), avg(a4) from t where a1 > 100",
		"select count(*) from t where a2 between 50 and 200",
	}
	oracle := map[string]string{}
	{
		ref := Open(Options{Policy: FullLoad})
		if err := ref.Attach("t", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			oracle[q] = chaosRow(res)
		}
		ref.Close()
	}

	// Session 1: learn, then die mid-snapshot-write (torn at byte 64 of
	// every snapshot file, forever).
	ffs := vfs.NewFaultFS(nil)
	db := openFS(Options{Policy: ColumnLoads, CacheDir: cache}, ffs)
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	ffs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: syscall.EIO, AfterBytes: 64, Times: -1, PathContains: "cache"})
	_ = db.Snapshot() // the "crash": every save tears at byte 64
	_ = db.Close()

	// Session 2: restart on a clean filesystem. Whatever the torn saves
	// left behind must be rejected, not trusted.
	db2 := Open(Options{Policy: ColumnLoads, CacheDir: cache})
	if err := db2.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := db2.Query(q)
		if err != nil {
			t.Fatalf("cold-start query %q after torn snapshot: %v", q, err)
		}
		if got := chaosRow(res); got != oracle[q] {
			t.Fatalf("cold-start WRONG ANSWER after torn snapshot for %q:\n  got  %s\n  want %s", q, got, oracle[q])
		}
	}
	// Save clean snapshots this time, then corrupt them on disk.
	if err := db2.Snapshot(); err != nil {
		t.Fatalf("clean snapshot save: %v", err)
	}
	db2.Close()

	snaps, err := filepath.Glob(filepath.Join(cache, "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("expected snapshot files in %s (err %v)", cache, err)
	}
	for _, sp := range snaps {
		b, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(b) / 3; i < len(b) && i < len(b)/3+16; i++ {
			b[i] ^= 0xff // bit-flip a 16-byte run in the middle
		}
		if err := os.WriteFile(sp, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Session 3: restart over the corrupted snapshots.
	db3 := Open(Options{Policy: ColumnLoads, CacheDir: cache})
	defer db3.Close()
	if err := db3.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := db3.Query(q)
		if err != nil {
			t.Fatalf("cold-start query %q after snapshot corruption: %v", q, err)
		}
		if got := chaosRow(res); got != oracle[q] {
			t.Fatalf("cold-start WRONG ANSWER after snapshot corruption for %q:\n  got  %s\n  want %s", q, got, oracle[q])
		}
	}
}

// TestChaosGovernorBaselineAfterFailedQueries hammers one engine with
// persistent read faults and checks the governor never accretes pinned
// bytes from the failed queries' half-built structures.
func TestChaosGovernorBaselineAfterFailedQueries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeRandomTable(t, path, 400, 3, 100, 2)

	ffs := vfs.NewFaultFS(nil)
	db := openFS(Options{Policy: PartialLoadsV2, MemoryBudget: 128 << 10}, ffs)
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	ffs.AddRule(vfs.Rule{Op: vfs.OpRead, Err: syscall.EIO, AfterBytes: 1024, Times: -1})
	for i := 0; i < 20; i++ {
		q := fmt.Sprintf("select sum(a%d) from t where a%d > %d", i%3+1, (i+1)%3+1, i)
		if _, err := db.Query(q); err != nil && !chaosTyped(err) {
			t.Fatalf("query %d failed untyped: %v", i, err)
		}
		if p := db.MemStats().Pinned; p != 0 {
			t.Fatalf("governor leak after failed query %d: pinned=%d", i, p)
		}
	}
	ffs.Clear()
	res, err := db.Query("select count(*) from t")
	if err != nil {
		t.Fatalf("recovery query: %v", err)
	}
	if got := chaosRow(res); got != "400" {
		t.Fatalf("recovery count = %s, want 400", got)
	}
}

// TestChaosPositionalLoadFaults: a positional column load that a read
// fault or a cancelled context stops mid-pass loads nothing, leaks no
// governor pin and returns a typed error; once the fault clears the same
// query answers like a clean engine.
func TestChaosPositionalLoadFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	writeRandomTable(t, path, 20000, 6, 1000, 5)
	const warm, q = "select sum(a1) from t where a2 > 10", "select sum(a3), count(*) from t where a4 > 500"
	ref := Open(Options{})
	defer ref.Close()
	if err := ref.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		rule  vfs.Rule
		ctx   func() (context.Context, context.CancelFunc)
		typed func(error) bool
	}{
		{"EIO", vfs.Rule{Op: vfs.OpRead, PathContains: "t.csv", Err: syscall.EIO, AfterBytes: st.Size() / 2, Times: -1},
			func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }, chaosTyped},
		// Slow reads and a short deadline: the deadline lands mid-pass.
		{"cancelled", vfs.Rule{Op: vfs.OpRead, PathContains: "t.csv", Delay: 20 * time.Millisecond, Times: -1},
			func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 50*time.Millisecond)
			},
			func(err error) bool { return errors.Is(err, context.DeadlineExceeded) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := vfs.NewFaultFS(nil)
			db := openFS(Options{Policy: ColumnLoads, Workers: 2, ChunkSize: 16 << 10, MemoryBudget: 64 << 20}, ffs)
			defer db.Close()
			if err := db.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Query(warm); err != nil {
				t.Fatal(err)
			}
			ffs.AddRule(tc.rule)
			ctx, cancel := tc.ctx()
			_, err := db.QueryContext(ctx, q)
			cancel()
			if err == nil || !tc.typed(err) {
				t.Fatalf("query error = %v, want a typed failure", err)
			}
			if p := db.MemStats().Pinned; p != 0 {
				t.Errorf("governor leak: pinned=%d", p)
			}
			if st, err := db.TableStats("t"); err != nil || !slices.Equal(st.DenseCols, []int{0, 1}) {
				t.Errorf("dense columns after a failed load: %v (%v), want [0 1]", st.DenseCols, err)
			}
			ffs.Clear()
			before := db.Work()
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := chaosRow(res); got != chaosRow(want) {
				t.Fatalf("after recovery: got %s, want %s", got, chaosRow(want))
			}
			if w := db.Work().Sub(before); w.PosMapHits == 0 {
				t.Error("the recovery load was not positional")
			}
		})
	}
}
