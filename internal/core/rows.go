package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nodb/internal/exec"
	"nodb/internal/metrics"
	"nodb/internal/plan"
	"nodb/internal/qos"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// cursorContext is the context a cursor's operator tree runs under:
// cancellable by Close (and by Engine.Close), while delegating Err to the
// caller's context *dynamically*. The engine's cooperative checkpoints
// poll Err between chunks, so a parent context that reports cancellation
// through Err alone (without a Done channel) still stops the scan — plain
// context.WithCancel would hide the parent's Err method.
type cursorContext struct {
	parent context.Context
	done   chan struct{}
	mu     sync.Mutex
	err    error
}

func newCursorContext(parent context.Context) (*cursorContext, context.CancelFunc) {
	c := &cursorContext{parent: parent, done: make(chan struct{})}
	cancel := func() { c.cancel(context.Canceled) }
	stop := context.AfterFunc(parent, func() { c.cancel(parent.Err()) })
	return c, func() { stop(); cancel() }
}

func (c *cursorContext) cancel(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.err = err
	close(c.done)
}

func (c *cursorContext) Done() <-chan struct{} { return c.done }

func (c *cursorContext) Err() error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.parent.Err()
}

func (c *cursorContext) Deadline() (deadline time.Time, ok bool) { return c.parent.Deadline() }

func (c *cursorContext) Value(key any) any { return c.parent.Value(key) }

// Rows is a streaming query cursor over a pull-based operator pipeline.
// Nothing runs until the first Next: it builds the operator tree and
// pulls it on the caller's goroutine, one batch per pull. Early
// termination is built in: a LIMIT — or closing the cursor — stops a
// raw-file scan mid-pass (between chunks, via the per-chunk cancellation
// hooks) instead of letting it finish; plans that sort, group or join
// materialize first, and closing their cursor cancels whatever scan is
// still running.
//
// The iteration protocol matches database/sql: Next advances and reports
// whether a row is available, Scan copies the current row into Go values,
// Err reports the error that ended iteration, and Close releases the
// cursor (stopping any in-flight scan). A Rows must be closed; Close is
// idempotent and a fully drained cursor closes cheaply.
//
// The cursor holds the root operator's batch and indexes into it; the
// batch stays valid until the next Next, which may reuse it. Row boxes the
// current row into a slice that stays valid, and NextBatch hands out the
// batch's typed vectors themselves.
//
// Rows is not safe for concurrent use by multiple goroutines.
type Rows struct {
	cols []string
	ctx  context.Context

	cancel context.CancelFunc
	unhook func() // releases the engine-close hook

	// open builds the operator tree on the first Next, which clears it
	// (a nil root is an empty result); end runs exactly once, at end of
	// rows or at Close — a Close before the first Next included — and
	// returns the plan text for Stats.
	open   func() (exec.Operator, error)
	end    func(err error) string
	root   exec.Operator
	sink   *resultSink // the result-cache tee of a singleflight leader
	e      *Engine
	before metrics.Snapshot
	timer  metrics.Timer

	// The current batch: output vectors in select-list order, its
	// selection vector, live row count, and the current row's live index.
	slots  []int // of OutKey(j) in the root's batches
	vecs   []*storage.DenseColumn
	sel    []int32
	n      int
	idx    int
	slab   []storage.Value // the batch's rows from slabLo on, boxed by its first Row
	slabLo int
	ident  []int32 // 0, 1, 2, ...: the positions of a dense batch

	done   bool
	closed bool
	err    error
	stats  QueryStats
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, pulling the next batch through the
// operator tree when the current one is used up. It returns false at
// end-of-rows or on error; consult Err to tell the two apart.
func (r *Rows) Next() bool {
	if r.closed || r.done {
		return false
	}
	if r.idx+1 < r.n {
		r.idx++
		return true
	}
	if err := r.pull(); err != nil || r.n == 0 {
		r.finish(err)
		return false
	}
	return true
}

// pull makes the root's next batch current (n = 0 at end of rows),
// building the operator tree on the first call.
func (r *Rows) pull() error {
	r.n, r.idx, r.slab = 0, 0, nil
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if r.open != nil {
		open := r.open
		r.open = nil
		var err error
		if r.root, err = open(); err != nil {
			return err
		}
	}
	if r.root == nil {
		return nil
	}
	b, err := r.root.Next()
	if err != nil || b == nil {
		return err
	}
	for j := range r.vecs {
		if r.vecs[j] = b.ColAt(exec.OutKey(j), &r.slots[j]); r.vecs[j] == nil {
			return fmt.Errorf("core: output column %d not in batch", j)
		}
	}
	r.sel, r.n = b.Sel, b.Rows()
	r.sink.add(r.vecs, r.sel, r.n)
	return nil
}

// NextBatch advances the cursor to the last row of the current batch and
// returns the rows it passed: the remainder of a batch partly consumed by
// Next, or else the next batch. cols are the output vectors in select-list
// order; row k of the result is position sel[k] of every vector, or
// position k when sel is nil, for k < n. n is 0 where Next would return
// false (consult Err). The vectors belong to the cursor and are valid
// until its next Next, NextBatch or Close. It is a function rather than a
// method so nodb.Rows keeps its database/sql shape; the HTTP server uses
// it to encode a result a batch at a time.
func NextBatch(r *Rows) (cols []*storage.DenseColumn, sel []int32, n int) {
	if !r.Next() {
		return nil, nil, 0
	}
	sel = r.sel
	if r.idx > 0 {
		sel = r.rest()
	}
	n = r.n - r.idx
	r.idx = r.n - 1
	return r.vecs, sel, n
}

// rest returns the batch positions of rows idx..n-1 of the current batch.
func (r *Rows) rest() []int32 {
	sel := r.sel
	if sel == nil {
		for i := len(r.ident); i < r.n; i++ {
			r.ident = append(r.ident, int32(i))
		}
		sel = r.ident[:r.n]
	}
	return sel[r.idx:]
}

// finish ends the cursor exactly once: it runs the query's end-of-rows
// work, records the final error and stats, and releases the contexts.
func (r *Rows) finish(err error) {
	r.done, r.n, r.err = true, 0, err
	plan := r.end(err)
	r.stats = QueryStats{
		Work: r.e.counters.Snapshot().Sub(r.before),
		Wall: r.timer.Elapsed(),
		Plan: plan,
	}
	r.unhook()
	r.cancel()
}

// Row returns the current row's values. The slice is owned by the caller
// and remains valid after further Next calls: the first Row of a batch
// boxes the batch's remaining rows into one slab, a column at a time.
func (r *Rows) Row() []storage.Value {
	if r.n == 0 {
		return nil
	}
	arity := len(r.vecs)
	if r.slab == nil {
		r.box()
	}
	k := (r.idx - r.slabLo) * arity
	return r.slab[k : k+arity : k+arity]
}

// box fills a fresh slab with rows idx..n-1 of the current batch, one
// typed loop per column. The slab is zeroed, so each value needs only its
// type and its one field.
func (r *Rows) box() {
	arity := len(r.vecs)
	r.slabLo = r.idx
	r.slab = make([]storage.Value, (r.n-r.idx)*arity)
	pos := r.rest()
	for j, c := range r.vecs {
		vals := r.slab[j:]
		switch c.Typ {
		case schema.Int64:
			switch c.Width() {
			case 1:
				boxInts(vals, c.I8, pos, arity)
			case 2:
				boxInts(vals, c.I16, pos, arity)
			case 4:
				boxInts(vals, c.I32, pos, arity)
			default:
				boxInts(vals, c.Ints, pos, arity)
			}
		case schema.Float64:
			for k, i := range pos {
				v := &vals[k*arity]
				v.Typ, v.F = schema.Float64, c.Floats[i]
			}
		default:
			for k, i := range pos {
				v := &vals[k*arity]
				v.Typ, v.S = c.Typ, c.Strs[i]
			}
		}
	}
}

// boxInts boxes the values of an int vector at positions pos into every
// arity-th slot of vals.
func boxInts[T storage.Int](vals []storage.Value, v []T, pos []int32, arity int) {
	for k, i := range pos {
		b := &vals[k*arity]
		b.Typ, b.I = schema.Int64, int64(v[i])
	}
}

// Scan copies the current row into dest, reading each typed vector
// directly. Supported destinations: *int64, *int, *float64, *string,
// *bool, *any and *storage.Value. Numeric values widen (int64 → float64);
// *string accepts any value via its text rendering.
func (r *Rows) Scan(dest ...any) error {
	if r.n == 0 || r.closed {
		return errors.New("core: Scan called without a row; call Next first")
	}
	if len(dest) != len(r.vecs) {
		return fmt.Errorf("core: Scan expected %d destinations, got %d", len(r.vecs), len(dest))
	}
	i := r.idx
	if r.sel != nil {
		i = int(r.sel[i])
	}
	for j, d := range dest {
		if err := scanValue(r.vecs[j], i, d); err != nil {
			return fmt.Errorf("core: Scan column %d (%s): %w", j, r.cols[j], err)
		}
	}
	return nil
}

func scanValue(c *storage.DenseColumn, i int, dest any) error {
	switch d := dest.(type) {
	case *int64:
		if c.Typ != schema.Int64 {
			return fmt.Errorf("cannot scan %s into *int64", c.Typ)
		}
		*d = c.Int(i)
	case *int:
		if c.Typ != schema.Int64 {
			return fmt.Errorf("cannot scan %s into *int", c.Typ)
		}
		v := c.Int(i)
		if int64(int(v)) != v {
			return fmt.Errorf("value %d overflows *int", v)
		}
		*d = int(v)
	case *float64:
		switch c.Typ {
		case schema.Int64:
			*d = float64(c.Int(i))
		case schema.Float64:
			*d = c.Floats[i]
		default:
			return fmt.Errorf("cannot scan %s into *float64", c.Typ)
		}
	case *bool:
		if c.Typ != schema.Int64 {
			return fmt.Errorf("cannot scan %s into *bool", c.Typ)
		}
		*d = c.Int(i) != 0
	case *string:
		*d = c.Value(i).String()
	case *any:
		switch c.Typ {
		case schema.Int64:
			*d = c.Int(i)
		case schema.Float64:
			*d = c.Floats[i]
		default:
			*d = c.Strs[i]
		}
	case *storage.Value:
		*d = c.Value(i)
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
	return nil
}

// Err returns the error that ended iteration, if any. It is nil while rows
// are still flowing, after a clean end-of-rows, and after an early Close
// (stopping early is not an error).
func (r *Rows) Err() error { return r.err }

// Stats returns the query's work accounting. It is complete once Next has
// returned false or Close was called; before that it is zero. After an
// early termination it covers the work actually done, not a full pass.
func (r *Rows) Stats() QueryStats { return r.stats }

// Close releases the cursor. Closing mid-iteration cancels the query,
// which stops a raw-file scan between chunks; the partial work is still
// accounted in Stats. Close is idempotent and returns any genuine query
// error (stopping early is not one).
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	if !r.done {
		r.cancel() // stop in-flight scans before the tree is closed
		r.finish(nil)
	}
	return r.err
}

// Result drains the cursor into a fully buffered Result and closes it.
// The buffered Query API is this convenience over the streaming one.
func (r *Rows) Result() (*Result, error) {
	defer r.Close()
	var rows [][]storage.Value
	for r.Next() {
		rows = append(rows, r.Row())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &Result{Columns: r.Columns(), Rows: rows, Stats: r.Stats()}, nil
}

// QueryRows opens a streaming cursor for one SELECT statement with
// optional `?` placeholder arguments. Planning errors surface here;
// execution errors surface through the cursor's Err.
func (e *Engine) QueryRows(ctx context.Context, query string, args ...any) (*Rows, error) {
	stmt, err := e.parseCached(query)
	if err != nil {
		return nil, err
	}
	bound, err := stmt.Bind(args...)
	if err != nil {
		return nil, err
	}
	return e.QueryRowsStmt(ctx, bound)
}

// QueryRowsStmt opens a streaming cursor over a parsed (and fully bound)
// statement. The returned cursor must be closed.
//
// With a result cache configured, a fully bound statement first consults
// the cache (keyed on normalized SQL + table signatures; see resultKey)
// and joins the singleflight group: the first of N identical concurrent
// queries executes, the rest wait and replay its result. The leader's
// query runs as its cursor is drained, so the followers wait until that
// cursor reaches end of rows or is closed.
func (e *Engine) QueryRowsStmt(ctx context.Context, stmt *sql.SelectStmt) (*Rows, error) {
	timer := metrics.StartTimer()
	before := e.counters.Snapshot()

	if err := e.checkOpen(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.revalidate(stmt); err != nil {
		return nil, err
	}

	// qkey is non-empty exactly when this call leads a singleflight for a
	// cacheable statement; the cursor's end finishes the flight on every
	// path, a Close before the first Next included.
	var qkey string
	if e.qcache != nil {
		if key := e.resultKey(stmt); key != "" {
			// Bounded so leader churn (every leader failing or overflowing
			// the cache bound) degrades to executing uncached rather than
			// looping; real workloads resolve in one or two iterations.
			for attempt := 0; attempt < 64 && qkey == ""; attempt++ {
				if res, ok := e.qcache.Get(key); ok {
					e.counters.AddResultCacheHit(1)
					return e.cachedRows(ctx, res, before, timer, "result cache hit\n"), nil
				}
				c, leader := e.qflight.Join(key)
				if leader {
					qkey = key
					break
				}
				select {
				case <-c.Done():
					if res, err := c.Result(); err == nil && res != nil {
						e.counters.AddQueryCollapsed(1)
						return e.cachedRows(ctx, res, before, timer, "singleflight collapse\n"), nil
					}
					// The leader failed (possibly its own cancellation) or
					// its result was uncacheable: retry — become the leader
					// or find a newer one.
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			if qkey != "" {
				e.counters.AddResultCacheMiss(1)
			}
		}
	}

	p, err := plan.Build(stmt, e, e.Policy())
	if err != nil {
		if qkey != "" {
			e.qflight.Finish(qkey, nil, err)
		}
		return nil, err
	}

	r := e.newRows(ctx, p.Output, before, timer)
	if qkey != "" {
		r.sink = &resultSink{max: e.qcache.MaxEntryBytes()}
	}
	unpin, cleanup := func() {}, func() {}
	r.open = func() (exec.Operator, error) {
		// Pin the adaptive structures this plan reads (the plan's Pins per
		// table, plus each table's positional map and synopsis) so the
		// governor cannot evict them while the scan streams over them.
		// Columns loaded *by* this query register most-recently-used and
		// are naturally poor victims. Pins drop before budget enforcement.
		unpin = e.pinPlan(p)
		if p.Limit == 0 {
			return nil, nil
		}
		root, cl, err := e.buildPipeline(r.ctx, p)
		cleanup = cl
		return root, err
	}
	r.end = func(err error) string {
		planText := p.String()
		if r.root != nil {
			planText += "vectorized pipeline:\n" + indentTree(exec.ExplainTree(r.root))
			r.root.Close()
		}
		cleanup()
		unpin()
		// Attribute the structures this query read (and any it built) to
		// the calling tenant before enforcement, so the per-tenant pass
		// charges the bytes to whoever actually caused them.
		if tenant := qos.TenantFrom(ctx); tenant != "" {
			e.ownPlan(p, tenant)
		}
		e.gov.Enforce()
		if qkey != "" {
			e.finishFlight(qkey, r, planText, err)
		}
		return planText
	}
	return r, nil
}

// newRows returns a cursor for the given output columns, cancellable by
// Close and by Engine.Close; the caller sets open and end.
func (e *Engine) newRows(ctx context.Context, cols []string, before metrics.Snapshot, timer metrics.Timer) *Rows {
	cctx, cancel := newCursorContext(ctx)
	// Engine.Close aborts in-flight cursors: closing the engine cancels
	// closeCtx, which cancels this cursor's context.
	unhook := context.AfterFunc(e.closeCtx, cancel)
	return &Rows{
		cols:   cols,
		ctx:    cctx,
		cancel: cancel,
		unhook: func() { unhook() },
		e:      e,
		before: before,
		timer:  timer,
		slots:  make([]int, len(cols)),
		vecs:   make([]*storage.DenseColumn, len(cols)),
	}
}

// pinPlan pins every table's planned structures and returns a function
// releasing all pins (idempotent per table via Table.Pin's own once).
func (e *Engine) pinPlan(p *plan.Plan) func() {
	unpins := make([]func(), 0, len(p.Tables))
	for i := range p.Tables {
		t, err := e.cat.Get(p.Tables[i].Name)
		if err != nil {
			continue // table vanished; execution will surface the error
		}
		unpins = append(unpins, t.Pin(p.Tables[i].Pins))
	}
	return func() {
		for _, u := range unpins {
			u()
		}
	}
}
