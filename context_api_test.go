package nodb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestQueryContextAPI exercises the public context-aware entry points: a
// live context behaves like Query, a cancelled one returns the context
// error without disturbing the shared store.
func TestQueryContextAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.csv")
	if err := os.WriteFile(path, []byte("1,10\n2,20\n3,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open(Options{})
	defer db.Close()
	if err := db.Attach("r", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	res, err := db.QueryContext(context.Background(), "select sum(a1), sum(a2) from r")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 6 || res.Rows[0][1].I != 60 {
		t.Fatalf("got %v", res.Rows[0])
	}

	if _, err := db.ExplainContext(context.Background(), "select sum(a1) from r"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "select sum(a1) from r"); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext error = %v, want context.Canceled", err)
	}
	if _, err := db.ExplainContext(ctx, "select sum(a1) from r"); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExplainContext error = %v, want context.Canceled", err)
	}

	// The cancelled calls must not have broken the store.
	if _, err := db.QueryContext(context.Background(), "select count(*) from r"); err != nil {
		t.Fatal(err)
	}
}

// TestQueryContextParallelAPI drives the public API from parallel
// goroutines the way internal/server does.
func TestQueryContextParallelAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.csv")
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i*3)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open(Options{Policy: PartialLoadsV2})
	defer db.Close()
	if err := db.Attach("p", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := db.QueryContext(context.Background(), "select count(*) from p where a1 >= 0")
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].I != 2000 {
					errs <- errors.New("wrong count under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
