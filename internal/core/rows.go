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

// rowBatchSize is how many rows the producer accumulates before handing a
// batch to the cursor — large enough that channel synchronization is off
// the per-row path of a fast scan. rowFlushInterval bounds how long a
// partial batch may sit: a background ticker flushes it, so a highly
// selective scan over a large file delivers each found row within the
// interval even when no further rows qualify for a long time.
const (
	rowBatchSize     = 256
	rowFlushInterval = 25 * time.Millisecond
)

// cursorContext is the context a cursor's producer runs under: cancellable
// by Close (and by Engine.Close), while delegating Err to the caller's
// context *dynamically*. The engine's cooperative checkpoints poll Err
// between chunks, so a parent context that reports cancellation through
// Err alone (without a Done channel) still stops the scan — plain
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

// errLimitReached aborts a streaming scan once LIMIT rows were emitted. It
// is internal: the cursor reports it as clean end-of-rows.
var errLimitReached = errors.New("core: row limit reached")

// Rows is a streaming query cursor. Rows are produced by a pull-based
// operator pipeline with early termination: a LIMIT — or closing the
// cursor — stops a raw-file scan mid-pass (between chunks, via the
// per-chunk cancellation hooks) instead of letting it finish; plans that
// sort, group or join materialize first, and closing their cursor cancels
// whatever scan is still running.
//
// The iteration protocol matches database/sql: Next advances and reports
// whether a row is available, Scan copies the current row into Go values,
// Err reports the error that ended iteration, and Close releases the
// cursor (stopping any in-flight scan). A Rows must be closed; Close is
// idempotent and a fully drained cursor closes cheaply.
//
// Rows is not safe for concurrent use by multiple goroutines.
type Rows struct {
	cols []string

	cancel context.CancelFunc
	unhook func() // releases the engine-close hook
	ch     chan [][]storage.Value
	free   chan [][]storage.Value // batches handed back by ReleaseBatch

	// Written by the producer before it closes ch; the channel close is
	// the synchronization point making them visible to the consumer.
	finalErr   error
	finalStats QueryStats

	// Consumer-side state.
	cur         [][]storage.Value
	idx         int
	row         []storage.Value
	done        bool
	closed      bool
	closedEarly bool
	err         error
	stats       QueryStats
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, blocking until one is available or the
// query ends. It returns false at end-of-rows or on error; consult Err to
// tell the two apart.
func (r *Rows) Next() bool {
	if r.closed || r.done {
		return false
	}
	if r.idx < len(r.cur) {
		r.row = r.cur[r.idx]
		r.idx++
		return true
	}
	batch, ok := <-r.ch
	if !ok {
		r.finish()
		return false
	}
	r.cur, r.idx = batch, 1
	r.row = batch[0]
	return true
}

// NextBatch advances the cursor past every row up to the end of the
// producer's current batch and returns them: the remainder of a batch
// partly consumed by Next, or else the next batch, blocking until one is
// available. It returns nil where Next would return false (consult Err).
// The rows are owned by the caller, like Row's, until handed back with
// ReleaseBatch. It is a function rather than a method so nodb.Rows keeps
// its database/sql shape; the HTTP servers use it to encode and write a
// result a batch at a time.
func NextBatch(r *Rows) [][]storage.Value {
	if !r.Next() {
		return nil
	}
	batch := r.cur[r.idx-1:]
	r.idx = len(r.cur)
	r.row = batch[len(batch)-1]
	return batch
}

// ReleaseBatch hands a batch returned by NextBatch back to the cursor's
// producer, which refills its rows in place instead of allocating new
// ones; a consumer that encodes each batch and drops it thereby keeps
// the stream's working set to a few batches. The caller must not touch
// the batch, its rows or Row afterwards.
func ReleaseBatch(r *Rows, batch [][]storage.Value) {
	select {
	case r.free <- batch:
	default: // nil free list, or already full
	}
}

// finish records the producer's final error and stats (visible once the
// channel is closed) and releases the cursor's contexts.
func (r *Rows) finish() {
	r.done = true
	r.err = r.finalErr
	r.stats = r.finalStats
	r.release()
}

func (r *Rows) release() {
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	if r.unhook != nil {
		r.unhook()
		r.unhook = nil
	}
}

// Row returns the current row's values. The slice is owned by the caller
// and remains valid after further Next calls.
func (r *Rows) Row() []storage.Value {
	return r.row
}

// Scan copies the current row into dest. Supported destinations: *int64,
// *int, *float64, *string, *bool, *any and *storage.Value. Numeric values
// widen (int64 → float64); *string accepts any value via its text
// rendering.
func (r *Rows) Scan(dest ...any) error {
	if r.row == nil || r.done || r.closed {
		return errors.New("core: Scan called without a row; call Next first")
	}
	if len(dest) != len(r.row) {
		return fmt.Errorf("core: Scan expected %d destinations, got %d", len(r.row), len(dest))
	}
	for i, d := range dest {
		if err := scanValue(r.row[i], d); err != nil {
			return fmt.Errorf("core: Scan column %d (%s): %w", i, r.cols[i], err)
		}
	}
	return nil
}

func scanValue(v storage.Value, dest any) error {
	switch d := dest.(type) {
	case *int64:
		if v.Typ != schema.Int64 {
			return fmt.Errorf("cannot scan %s into *int64", v.Typ)
		}
		*d = v.I
	case *int:
		if v.Typ != schema.Int64 {
			return fmt.Errorf("cannot scan %s into *int", v.Typ)
		}
		if int64(int(v.I)) != v.I {
			return fmt.Errorf("value %d overflows *int", v.I)
		}
		*d = int(v.I)
	case *float64:
		switch v.Typ {
		case schema.Int64:
			*d = float64(v.I)
		case schema.Float64:
			*d = v.F
		default:
			return fmt.Errorf("cannot scan %s into *float64", v.Typ)
		}
	case *bool:
		if v.Typ != schema.Int64 {
			return fmt.Errorf("cannot scan %s into *bool", v.Typ)
		}
		*d = v.I != 0
	case *string:
		*d = v.String()
	case *any:
		switch v.Typ {
		case schema.Int64:
			*d = v.I
		case schema.Float64:
			*d = v.F
		default:
			*d = v.S
		}
	case *storage.Value:
		*d = v
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

// Close releases the cursor. Closing mid-iteration cancels the producer,
// which stops a raw-file scan between chunks; the partial work is still
// accounted in Stats. Close is idempotent and returns any genuine query
// error (cancellation caused by Close itself is not reported).
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	if !r.done {
		r.closedEarly = true
		if r.cancel != nil {
			r.cancel()
		}
		for range r.ch { // discard; producer exits promptly once cancelled
		}
		r.finish()
		if r.closedEarly && errors.Is(r.err, context.Canceled) {
			// The cancellation we just caused, not a query failure.
			r.err = nil
		}
	}
	r.release()
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

// rowWriter batches produced rows onto the cursor channel, enforcing LIMIT.
// The pipeline drain and the background flusher both touch the batch, so
// access is serialized here.
type rowWriter struct {
	ctx   context.Context
	ch    chan<- [][]storage.Value
	free  <-chan [][]storage.Value // released batches to refill; may be nil
	limit int                      // -1 = unlimited

	mu    sync.Mutex
	count int
	batch [][]storage.Value
	slab  []storage.Value // unused tail of the values emitFilled carves rows from
	sink  *resultSink     // optional tee of emitted rows for the result cache
}

// emit appends one row, taking ownership of it. It returns errLimitReached
// once LIMIT rows have been emitted (aborting the producing scan) and the
// context's error when the cursor was closed or cancelled.
func (w *rowWriter) emit(row []storage.Value) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.limit >= 0 && w.count >= w.limit {
		return errLimitReached
	}
	w.sink.add(row)
	w.batch = append(w.batch, row)
	w.count++
	if w.limit >= 0 && w.count >= w.limit {
		if err := w.flushLocked(); err != nil {
			return err
		}
		return errLimitReached
	}
	if len(w.batch) >= rowBatchSize {
		return w.flushLocked()
	}
	return nil
}

// emitFilled appends n rows of arity values, each written in place by
// fill(row, r) for r in [0, n), under one lock acquisition. The rows are
// the writer's own: rows of a released batch where one is at hand, else
// carved from a slab allocated for the rows still to come in this batch.
func (w *rowWriter) emitFilled(n, arity int, fill func(row []storage.Value, r int)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for r := 0; r < n; r++ {
		if w.limit >= 0 && w.count >= w.limit {
			return errLimitReached
		}
		row := w.slot(arity, min(n-r, rowBatchSize-len(w.batch)))
		fill(row, r)
		w.sink.add(row)
		w.count++
		if len(w.batch) >= rowBatchSize {
			if err := w.flushLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// slot extends the batch by one row of arity values and returns it. When
// it must allocate, it allocates for the next rows rows at once.
func (w *rowWriter) slot(arity, rows int) []storage.Value {
	if len(w.batch) == 0 {
		w.batch = w.fresh()
	}
	n := len(w.batch)
	if n < cap(w.batch) {
		w.batch = w.batch[:n+1]
		if row := w.batch[n]; cap(row) >= arity { // left by a released batch
			w.batch[n] = row[:arity]
			return w.batch[n]
		}
	} else {
		w.batch = append(w.batch, nil)
	}
	if len(w.slab) < arity {
		w.slab = make([]storage.Value, rows*arity)
	}
	row := w.slab[:arity:arity]
	w.slab = w.slab[arity:]
	w.batch[n] = row
	return row
}

// fresh returns a released batch emptied for refilling, or nil when the
// consumer has handed none back.
func (w *rowWriter) fresh() [][]storage.Value {
	select {
	case b := <-w.free:
		return b[:0]
	default:
		return nil
	}
}

func (w *rowWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *rowWriter) flushLocked() error {
	if len(w.batch) == 0 {
		return nil
	}
	batch := w.batch
	w.batch = nil
	select {
	case w.ch <- batch:
		return nil
	case <-w.ctx.Done():
		return w.ctx.Err()
	}
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
// queries executes, the rest wait and replay its result.
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
	// cacheable statement; produce finishes the flight on every path.
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

	cctx, cancel := newCursorContext(ctx)
	// Engine.Close aborts in-flight cursors: closing the engine cancels
	// closeCtx, which cancels this cursor's context.
	unhook := context.AfterFunc(e.closeCtx, cancel)

	r := &Rows{
		cols:   p.Output,
		cancel: cancel,
		unhook: func() { unhook() },
		ch:     make(chan [][]storage.Value, 4),
		free:   make(chan [][]storage.Value, 8),
	}
	go e.produce(cctx, p, r, before, timer, qkey)
	return r, nil
}

// produce runs the query and feeds the cursor. It always closes the
// channel last, after recording the final error and stats. A non-empty
// qkey means this execution leads a singleflight: the emitted rows are
// teed into a private copy that, on success, is admitted to the result
// cache and handed to the waiting followers.
func (e *Engine) produce(ctx context.Context, p *plan.Plan, r *Rows, before metrics.Snapshot, timer metrics.Timer, qkey string) {
	defer close(r.ch)
	w := &rowWriter{ctx: ctx, ch: r.ch, free: r.free, limit: p.Limit}
	if qkey != "" {
		w.sink = &resultSink{max: e.qcache.MaxEntryBytes()}
	}

	// Pin the adaptive structures this plan reads (the plan's Pins per
	// table, plus each table's positional map and split files) so the
	// governor cannot evict them while the scan streams over them. Columns
	// loaded *by* this query register most-recently-used and are naturally
	// poor victims. Pins drop before budget enforcement below.
	unpin := e.pinPlan(p)

	// Background flusher: bounds how long a partial batch sits when the
	// scan finds rows rarely. It must stop before the channel closes.
	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		tick := time.NewTicker(rowFlushInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				_ = w.flush() // a cancelled cursor surfaces through execute
			case <-stopFlush:
				return
			}
		}
	}()

	note, err := e.execute(ctx, p, w)
	close(stopFlush)
	<-flushDone
	if err == nil {
		err = w.flush()
	}
	if errors.Is(err, errLimitReached) {
		err = nil // LIMIT satisfied: a clean early stop, not a failure
	}
	unpin()
	// Attribute the structures this query read (and any it built) to the
	// calling tenant before enforcement, so the per-tenant pass charges
	// the bytes to whoever actually caused them.
	if tenant := qos.TenantFrom(ctx); tenant != "" {
		e.ownPlan(p, tenant)
	}
	e.gov.Enforce()
	r.finalErr = err
	planText := p.String() + note
	r.finalStats = QueryStats{
		Work: e.counters.Snapshot().Sub(before),
		Wall: timer.Elapsed(),
		Plan: planText,
	}
	if qkey != "" {
		// Publish to the cache first, then wake the followers: a follower
		// that misses the Finish window still finds the cache entry.
		if err == nil && w.sink != nil && !w.sink.overflow {
			res := &qos.CachedResult{
				Columns: append([]string(nil), r.cols...),
				Rows:    w.sink.rows,
				Plan:    planText,
			}
			e.qcache.Put(qkey, res)
			e.qflight.Finish(qkey, res, nil)
		} else {
			e.qflight.Finish(qkey, nil, err)
		}
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

// execute compiles the plan into the vectorized operator pipeline and
// drains it into the cursor. It returns the executed operator tree, with
// per-operator batch/row counters, as an EXPLAIN note for the stats plan.
func (e *Engine) execute(ctx context.Context, p *plan.Plan, w *rowWriter) (string, error) {
	if p.Limit == 0 {
		return "", nil
	}
	root, cleanup, err := e.buildPipeline(ctx, p)
	if err != nil {
		cleanup()
		return "", err
	}
	defer cleanup()
	defer root.Close()

	err = drainPipeline(ctx, root, len(p.Output), w)
	note := "vectorized pipeline:\n" + indentTree(exec.ExplainTree(root))
	return note, err
}
