package nodb

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nodb/internal/csvgen"
)

// TestPublicCursorLimitAndClose drives the streaming API end to end at
// the public surface: LIMIT and an early Close both stop the raw-file
// scan short of a full pass (asserted via the work counters).
func TestPublicCursorLimitAndClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.csv")
	const rows = 40000
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 4, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	db := Open(Options{Policy: PartialLoadsV1, ChunkSize: 4096})
	defer db.Close()
	if err := db.Attach("big", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	// Full pass baseline.
	before := db.Work().RawBytesRead
	res, err := db.Query("select a1 from big where a1 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("full query yielded %d rows, want %d", len(res.Rows), rows)
	}
	full := db.Work().RawBytesRead - before

	// LIMIT stops the scan after the first chunks.
	before = db.Work().RawBytesRead
	res, err = db.Query("select a1 from big where a1 >= 0 limit 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 yielded %d rows", len(res.Rows))
	}
	limited := db.Work().RawBytesRead - before
	if limited == 0 || limited*4 >= full {
		t.Fatalf("LIMIT 5 read %d raw bytes vs %d full; want early termination", limited, full)
	}

	// Closing a cursor mid-iteration stops the scan too.
	before = db.Work().RawBytesRead
	cur, err := db.QueryRows(context.Background(), "select a1 from big where a1 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && cur.Next(); i++ {
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	closed := db.Work().RawBytesRead - before
	if closed == 0 || closed >= st.Size() {
		t.Fatalf("closed cursor read %d of %d raw bytes; want a mid-pass stop", closed, st.Size())
	}
}

// TestPublicCloseSemantics: Close is real now — idempotent, typed error,
// state released.
func TestPublicCloseSemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 100, Cols: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	db := Open(Options{})
	if err := db.Attach("T", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("select sum(a1) from T"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, err := db.Query("select sum(a1) from T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := db.Prepare("select a1 from T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prepare after Close = %v, want ErrClosed", err)
	}
	if err := db.Attach("U", TableSpec{Path: path}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Attach after Close = %v, want ErrClosed", err)
	}
	if err := db.Detach("T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Detach after Close = %v, want ErrClosed", err)
	}
	if _, err := db.Refresh("T"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Refresh after Close = %v, want ErrClosed", err)
	}
	if db.MemSize() != 0 {
		t.Fatalf("MemSize after Close = %d, want 0", db.MemSize())
	}
}
