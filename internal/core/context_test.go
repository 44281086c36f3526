package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodb/internal/csvgen"
	"nodb/internal/plan"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// trippingContext reports itself cancelled after `allow` Err checks. It
// gives tests a deterministic way to cancel mid-scan: the cooperative
// checkpoints (query entry, per-table, per-chunk) each call Err exactly
// once, so the trip point pins where in the pipeline the query dies.
type trippingContext struct {
	context.Context
	allow int64
	calls atomic.Int64
}

func (c *trippingContext) Err() error {
	if c.calls.Add(1) > c.allow {
		return context.Canceled
	}
	return nil
}

// TestQueryContextPreCancelled: a cancelled context aborts the query
// before it touches the raw file at all.
func TestQueryContextPreCancelled(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 1000, Cols: 4, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	if err := e.Attach("T", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	before := e.Counters().Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, "select sum(a1) from T")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext error = %v, want context.Canceled", err)
	}
	if delta := e.Counters().Snapshot().Sub(before).RawBytesRead; delta != 0 {
		t.Fatalf("pre-cancelled query read %d raw bytes, want 0", delta)
	}
}

// TestQueryContextCancelAbortsScanEarly: a context cancelled mid-scan
// stops the raw-file pass between chunks — the raw-bytes-read counter
// lands well short of the file size instead of covering the whole file.
func TestQueryContextCancelAbortsScanEarly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.csv")
	const rows = 50000
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 4, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, path)

	for _, pol := range []plan.Policy{plan.PolicyColumnLoads, plan.PolicyPartialV2} {
		t.Run(pol.String(), func(t *testing.T) {
			// Small chunks give the scan many cancellation checkpoints.
			e := NewEngine(Options{Policy: pol, ChunkSize: 4096})
			if err := e.Attach("B", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			before := e.Counters().Snapshot()

			// Let the entry checks and the first few chunks through, then
			// trip.
			ctx := &trippingContext{Context: context.Background(), allow: 8}
			_, err := e.QueryContext(ctx, "select sum(a1) from B where a1 >= 0")
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("QueryContext error = %v, want context.Canceled", err)
			}
			delta := e.Counters().Snapshot().Sub(before)
			if delta.RawBytesRead == 0 {
				t.Fatal("query never reached the raw file; cancellation not mid-scan")
			}
			if delta.RawBytesRead >= size/2 {
				t.Fatalf("cancelled scan read %d of %d raw bytes; want an early stop", delta.RawBytesRead, size)
			}

			// The aborted load must not have poisoned the store: the same
			// query under a live context answers correctly.
			res, err := e.Query("select sum(a1), count(*) from B where a1 >= 0")
			if err != nil {
				t.Fatal(err)
			}
			wantSum := int64(rows) * int64(rows-1) / 2
			if res.Rows[0][0].I != wantSum || res.Rows[0][1].I != rows {
				t.Fatalf("post-cancel query got sum=%v count=%v, want %d/%d",
					res.Rows[0][0], res.Rows[0][1], wantSum, rows)
			}
		})
	}
}

// TestQueryContextDeadlineExceeded: an expired deadline surfaces as
// context.DeadlineExceeded.
func TestQueryContextDeadlineExceeded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 1000, Cols: 4, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	if err := e.Attach("T", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := e.QueryContext(ctx, "select sum(a1) from T")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryContext error = %v, want context.DeadlineExceeded", err)
	}
}

// TestConcurrentQueryContextMixedPolicies fires parallel QueryContext
// calls at one engine while the loading policy is flipped underneath them
// and one large table is being auto-loaded as other workers query a second
// table. Run under -race this is the concurrency surface of the server:
// shared engine, concurrent loads, policy switches, and cancellations.
func TestConcurrentQueryContextMixedPolicies(t *testing.T) {
	dir := t.TempDir()
	bigPath := filepath.Join(dir, "big.csv")
	smallPath := filepath.Join(dir, "small.csv")
	const bigRows, smallRows = 8000, 2000
	if err := csvgen.WriteFile(bigPath, csvgen.Spec{Rows: bigRows, Cols: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := csvgen.WriteFile(smallPath, csvgen.Spec{Rows: smallRows, Cols: 4, Seed: 5}); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(Options{Policy: plan.PolicyAuto})
	if err := e.Attach("BIG", TableSpec{Path: bigPath}); err != nil {
		t.Fatal(err)
	}
	if err := e.Attach("SMALL", TableSpec{Path: smallPath}); err != nil {
		t.Fatal(err)
	}
	bigSum := int64(bigRows) * int64(bigRows-1) / 2
	smallSum := int64(smallRows) * int64(smallRows-1) / 2

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	ctx := context.Background()

	// Repeated queries drive the auto policy's promotion of BIG's columns
	// to full loads while everything else is in flight.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				res, err := e.QueryContext(ctx, "select sum(a1), count(*) from BIG where a1 >= 0")
				if err != nil {
					errs <- fmt.Errorf("big worker %d: %w", w, err)
					return
				}
				if res.Rows[0][0].I != bigSum || res.Rows[0][1].I != bigRows {
					errs <- fmt.Errorf("big worker %d: sum=%v count=%v", w, res.Rows[0][0], res.Rows[0][1])
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				res, err := e.QueryContext(ctx, "select sum(a2) from SMALL where a2 >= 0")
				if err != nil {
					errs <- fmt.Errorf("small worker %d: %w", w, err)
					return
				}
				if res.Rows[0][0].I != smallSum {
					errs <- fmt.Errorf("small worker %d: sum=%v", w, res.Rows[0][0])
					return
				}
			}
		}(w)
	}
	// Policy flipper: queries in flight must stay correct whichever policy
	// each one observed at plan time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []plan.Policy{plan.PolicyColumnLoads, plan.PolicyPartialV2, plan.PolicyAuto}
		for i := 0; i < 24; i++ {
			e.SetPolicy(policies[i%len(policies)])
		}
		e.SetPolicy(plan.PolicyAuto)
	}()
	// Cancellation worker: cancelled queries must fail with the context
	// error and leave the shared store consistent for everyone else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := e.QueryContext(cctx, "select sum(a3) from BIG"); !errors.Is(err, context.Canceled) {
				errs <- fmt.Errorf("cancel worker: error = %v, want context.Canceled", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
