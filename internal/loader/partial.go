package loader

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"nodb/internal/catalog"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/intervals"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
)

// rowBatch accumulates qualifying rows from a (possibly parallel) partial
// scan, then emits them in row order.
type rowBatch struct {
	mu   sync.Mutex
	rows []int64
	vals [][]storage.Value // aligned with rows; one value per loaded column
}

func (b *rowBatch) add(row int64, vals []storage.Value) {
	b.mu.Lock()
	b.rows = append(b.rows, row)
	b.vals = append(b.vals, vals)
	b.mu.Unlock()
}

// sorted returns the permutation that orders rows ascending.
func (b *rowBatch) sort() {
	perm := make([]int, len(b.rows))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return b.rows[perm[i]] < b.rows[perm[j]] })
	rows := make([]int64, len(b.rows))
	vals := make([][]storage.Value, len(b.vals))
	for i, p := range perm {
		rows[i] = b.rows[p]
		vals[i] = b.vals[p]
	}
	b.rows, b.vals = rows, vals
}

// pushdown is a partial scan's predicate push-down into tokenization:
// the conjunction's predicates and the parse of a field, both by
// position in the scan's columns.
type pushdown struct {
	sch   *schema.Schema
	cols  []int
	preds [][]expr.Pred
}

// newPushdown checks that cols are columns of sch and indexes the
// conjunction's predicates by position in cols.
func newPushdown(sch *schema.Schema, cols []int, conj expr.Conjunction) (*pushdown, error) {
	pd := &pushdown{sch: sch, cols: cols, preds: make([][]expr.Pred, len(cols))}
	for i, c := range cols {
		if c < 0 || c >= sch.NumCols() {
			return nil, fmt.Errorf("loader: column %d out of range", c)
		}
		pd.preds[i] = conj.OnColumn(c)
	}
	return pd, nil
}

// parse converts field i of a row.
func (pd *pushdown) parse(i int, b []byte) (storage.Value, error) {
	return parseField(b, pd.sch.Columns[pd.cols[i]].Type, pd.sch.Format)
}

// abandon returns one portion's abandon hook: it parses a predicate
// column's field, observes the value into pc, and abandons the row on
// the first predicate the value fails — or when it does not parse, which
// no predicate accepts.
func (pd *pushdown) abandon(pc *synopsis.PortionAcc) scan.AbandonFunc {
	return func(idx int, f scan.FieldRef) bool {
		if len(pd.preds[idx]) == 0 {
			return false
		}
		v, err := pd.parse(idx, f.Bytes)
		if err != nil {
			return true
		}
		pc.Observe(idx, v)
		for _, p := range pd.preds[idx] {
			if !p.Eval(v) {
				return true
			}
		}
		return false
	}
}

// PartialScanContext is the Partial Loads operator: it pushes the
// conjunction into tokenization (abandoning a row the moment a predicate
// fails), parses and materializes only needCols of qualifying rows, and
// returns them as a View. Nothing is stored in the adaptive store — this
// is V1's "throw the data away immediately after every query" behavior; V2
// layers retention on top. A cancelled ctx aborts tokenization between
// chunks and the partial result is discarded.
func (l *Loader) PartialScanContext(ctx context.Context, t *catalog.Table, needCols []int, conj expr.Conjunction, tab int) (*exec.View, error) {
	loadCols := neededWithPreds(needCols, conj)
	sch := t.Schema()
	pd, err := newPushdown(sch, loadCols, conj)
	if err != nil {
		return nil, err
	}

	ps, err := l.openPortioned(ctx, t, loadCols, true)
	if err != nil {
		return nil, err
	}

	batch := &rowBatch{}
	record := l.RecordPositions && t.PosMap != nil

	// Synopsis observation rides on parses that happen anyway: with early
	// abandon active, the abandon hook observes the predicate columns it
	// parses for evaluation (the first predicate column is seen for every
	// row, so it always earns full-portion bounds) and the handler
	// observes the remaining columns of surviving rows (earning bounds
	// only on passes where every row survives). Without early abandon,
	// every row reaches the handler and it observes everything.
	//
	// The abandon hook parses predicate columns to evaluate them; the
	// handler re-parses. The duplicate parse touches only the (few)
	// predicate columns of the (few) qualifying rows and keeps the hook
	// stateless, which matters because portions run on separate
	// goroutines.
	useAbandon := !l.DisableEarlyAbandon && !conj.Empty()

	lateFilter := l.DisableEarlyAbandon && !conj.Empty()
	mkHandler := func(pc *synopsis.PortionAcc, tally *portionTally) (scan.RowHandler, func() error) {
		return func(rowID int64, fields []scan.FieldRef) error {
			vals := make([]storage.Value, len(loadCols))
			for i, f := range fields {
				v, err := pd.parse(i, f.Bytes)
				if err != nil {
					return fmt.Errorf("loader: row %d col %d: %w", rowID, loadCols[i], err)
				}
				vals[i] = v
				if !useAbandon || len(pd.preds[i]) == 0 {
					pc.Observe(i, v)
				}
			}
			tally.parsed += int64(len(fields))
			if record {
				for i, f := range fields {
					t.PosMap.Record(loadCols[i], rowID, f.Offset)
				}
			}
			if lateFilter {
				ok := conj.EvalRow(func(col int) storage.Value {
					for i, c := range loadCols {
						if c == col {
							return vals[i]
						}
					}
					return storage.Value{}
				})
				if !ok {
					return nil
				}
			}
			batch.add(rowID, vals)
			return nil
		}, nil
	}

	// Portion pruning rides on funcs: portions whose recorded bounds
	// exclude the conjunction are skipped — a skipped portion provably
	// holds no qualifying row, so results are identical to an unpruned
	// pass.
	begin := func(_ scan.PortionInfo, pc *synopsis.PortionAcc, tally *portionTally) portionHooks {
		var h portionHooks
		h.rows, h.end = mkHandler(pc, tally)
		if useAbandon {
			h.abandon = pd.abandon(pc)
		}
		return h
	}
	if err := ps.run(loadCols, conj, l.Counters, begin); err != nil {
		return nil, err
	}
	l.finish(ps, t)
	batch.sort()
	return viewFromBatch(batch, loadCols, sch, tab), nil
}

func viewFromBatch(b *rowBatch, loadCols []int, sch *schema.Schema, tab int) *exec.View {
	v := exec.NewView()
	v.Rows = b.rows
	for i, c := range loadCols {
		col := storage.NewDense(sch.Columns[c].Type, len(b.rows))
		for _, vals := range b.vals {
			col.Append(vals[i])
		}
		v.AddCol(exec.ColKey{Tab: tab, Col: c}, col)
	}
	return v
}

// queryRegion builds the region describing this query: per-predicate-column
// exact value ranges plus the set of materialized columns. ok is false
// when the region is not representable (non-int predicate column or a <>
// predicate) — V2 then skips region bookkeeping for this query.
func queryRegion(t *catalog.Table, loadCols []int, conj expr.Conjunction) (catalog.Region, bool) {
	sch := t.Schema()
	r := catalog.Region{Ranges: map[int]intervals.Interval{}, Cols: append([]int(nil), loadCols...)}
	sort.Ints(r.Cols)
	for _, c := range conj.Columns() {
		if sch.Columns[c].Type != schema.Int64 {
			return catalog.Region{}, false
		}
		iv, exact := conj.IntRange(c)
		if !exact {
			return catalog.Region{}, false
		}
		r.Ranges[c] = iv
	}
	return r, true
}

// PartialLoadV2Context is the retaining variant: when the adaptive store's
// recorded regions cover the query, it is answered from the sparse columns
// without touching the raw file; otherwise a partial scan runs, its rows
// are merged into the sparse columns, and the query's region is recorded
// for future reuse. A cancelled scan merges nothing and records no region,
// so the adaptive store never sees a half-loaded query's state.
func (l *Loader) PartialLoadV2Context(ctx context.Context, t *catalog.Table, needCols []int, conj expr.Conjunction, tab int) (*exec.View, error) {
	// Coverage check, scan, merge and region recording must be atomic
	// with respect to other loads on this table (§5.4).
	t.LockLoads()
	defer t.UnlockLoads()

	loadCols := neededWithPreds(needCols, conj)
	q, representable := queryRegion(t, loadCols, conj)

	if representable {
		// StoreBacked guards against an eviction that raced this query:
		// coverage whose backing data the governor reclaimed is a miss.
		// viewFromStore can still lose the race in the window after the
		// check; that, too, degrades to a rescan, never to a query error.
		if _, ok := t.CoveredBy(q); ok && t.StoreBacked(loadCols) {
			if v, err := l.viewFromStore(t, loadCols, conj, tab); err == nil {
				if l.Counters != nil {
					l.Counters.AddCacheHit(1)
				}
				return v, nil
			}
		}
	}
	if l.Counters != nil {
		l.Counters.AddCacheMiss(1)
	}

	view, err := l.PartialScanContext(ctx, t, needCols, conj, tab)
	if err != nil {
		return nil, err
	}

	// Merge qualifying rows into the sparse columns (unless dense already
	// holds the column: dense supersedes). MergeSparse runs under the
	// table lock and keeps the governor's byte accounting current.
	var stored int64
	for _, c := range loadCols {
		col := view.Col(exec.ColKey{Tab: tab, Col: c})
		stored += t.MergeSparse(c, view.Rows, col.Value)
	}
	if l.Counters != nil && stored > 0 {
		l.Counters.AddInternalBytesWritten(stored)
	}
	if representable {
		t.AddRegion(q)
	}
	return view, nil
}

// viewFromStore serves a covered query from the adaptive store: it
// gathers the rows present in the (sparse or dense) columns and filters
// them by the conjunction into the result view.
func (l *Loader) viewFromStore(t *catalog.Table, loadCols []int, conj expr.Conjunction, tab int) (*exec.View, error) {
	sch := t.Schema()

	// Snapshot the column pointers once: a concurrent governor eviction may
	// drop them from the table mid-iteration, but the snapshot keeps this
	// query's view of the data alive and consistent.
	dense := make(map[int]*storage.DenseColumn, len(loadCols))
	sparse := make(map[int]*storage.SparseColumn, len(loadCols))
	// Candidate rows: the sparse column with the fewest entries bounds the
	// iteration; if every column is dense, the dense scan and filter read
	// them.
	var driver *storage.SparseColumn
	for _, c := range loadCols {
		if d := t.Dense(c); d != nil {
			dense[c] = d
			continue
		}
		sp := t.Sparse(c, false)
		if sp == nil {
			return nil, fmt.Errorf("loader: column %d has no stored data despite coverage", c)
		}
		sparse[c] = sp
		if driver == nil || sp.Len() < driver.Len() {
			driver = sp
		}
	}
	if driver == nil {
		src, err := DenseSourceFor(t, loadCols, l.Counters)
		if err != nil {
			return nil, err
		}
		op, err := exec.NewDenseSelect(src, tab, loadCols, conj, 0)
		if err != nil {
			return nil, err
		}
		return exec.DrainView(op)
	}

	get := func(c int, row int64) (storage.Value, bool) {
		if d := dense[c]; d != nil {
			return d.Value(int(row)), true
		}
		return sparse[c].Get(row)
	}

	// The driver's rows ascend, so the gathered view is in row order.
	n := driver.Len()
	if l.Counters != nil {
		l.Counters.AddInternalBytesRead(int64(n) * 16)
	}
	v := exec.NewView()
	cols := make([]*storage.DenseColumn, len(loadCols))
	for j, c := range loadCols {
		cols[j] = storage.NewDense(sch.Columns[c].Type, n)
		v.AddCol(exec.ColKey{Tab: tab, Col: c}, cols[j])
	}
	vals := make([]storage.Value, len(loadCols))
outer:
	for i := 0; i < n; i++ {
		row, _ := driver.At(i)
		for j, c := range loadCols {
			val, ok := get(c, row)
			if !ok {
				continue outer // row loaded by a region lacking this column
			}
			vals[j] = val
		}
		for j, c := range cols {
			c.Append(vals[j])
		}
	}
	// loadCols holds every predicate column, so the filter reads the view.
	return exec.DrainView(exec.NewFilterOp(exec.NewViewScan(v, 0), tab, conj))
}
