package loader

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"nodb/internal/catalog"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/intervals"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
)

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

// portionRows is one portion's qualifying rows: their ids and the
// values of the kept columns.
type portionRows struct {
	rows []int64
	vecs []*storage.DenseColumn
}

// posBatch bounds the positions a partial pass buffers per portion.
const posBatch = 64 << 10

// partialPass makes one Partial Loads pass (Figure 3's V1) over needCols
// and the conjunction's columns, ascending, and returns those columns:
// the conjunction is pushed into tokenization, and each portion parses
// its qualifying rows into vectors of its own. It has two drains. With emit
// nil, each portion's rows and the values of every pass column are kept
// at the portion's index and returned; portions are contiguous and in
// file order, so index order is row order. Otherwise each portion hands
// the values of needCols to emit when batchSize rows have qualified and,
// if any are left, when the portion ends; emit is called from the
// portion's goroutine, owns what it is handed, and fails the pass with
// its error. Rows ascend within a batch, and batches within a portion.
//
// Synopsis observation rides on parses that happen anyway, once per
// tokenized row and column: with early abandon active, the abandon hook
// observes the predicate columns it parses for evaluation (the first
// predicate column is seen for every row, so it always earns
// full-portion bounds) and the handler re-parses and observes the other
// columns of surviving rows. With DisableEarlyAbandon, every row reaches
// the handler, which observes everything and filters afterwards.
// Positions of the rows that reach the handler are recorded when their
// portion ends or emit fails, with one RecordRows per column, or every
// posBatch rows.
func (l *Loader) partialPass(ctx context.Context, t *catalog.Table, needCols []int, conj expr.Conjunction, batchSize int, emit func(rows []int64, vecs []*storage.DenseColumn) error) ([]int, []portionRows, error) {
	cols := neededWithPreds(needCols, conj)
	pd, err := newPushdown(t.Schema(), cols, conj)
	if err != nil {
		return nil, nil, err
	}
	ps, err := l.openPortioned(ctx, t, cols, true)
	if err != nil {
		return nil, nil, err
	}
	var kept []portionRows
	keepCols, size := needCols, batchSize
	if emit == nil {
		kept = make([]portionRows, len(ps.ports))
		keepCols, size = cols, exec.DefaultBatchSize
	}
	keep := make([]int, len(keepCols)) // positions in cols
	for j, c := range keepCols {
		keep[j] = slices.Index(cols, c)
	}
	useAbandon := !l.DisableEarlyAbandon && !conj.Empty()
	lateFilter := l.DisableEarlyAbandon && !conj.Empty()
	record := l.RecordPositions && t.PosMap != nil
	types := colTypes(t.Schema(), cols)
	begin := func(p scan.PortionInfo, pc *synopsis.PortionAcc, tally *portionTally) portionHooks {
		var rows, posRows []int64
		var vecs []*storage.DenseColumn // the current batch's; nil until a row qualifies
		offs := make([][]int64, len(cols))
		if record {
			posRows = make([]int64, 0, size)
			for i := range offs {
				offs[i] = make([]int64, 0, size)
			}
		}
		vals := make([]storage.Value, len(cols))
		get := func(col int) storage.Value { return vals[slices.Index(cols, col)] }
		recordPositions := func() {
			for i, c := range cols {
				t.PosMap.RecordRows(c, posRows, offs[i])
				offs[i] = offs[i][:0]
			}
			posRows = posRows[:0]
		}
		flush := func() error {
			if len(rows) == 0 {
				return nil
			}
			r, v := rows, vecs
			rows, vecs = nil, nil
			if emit == nil {
				kept[p.Index] = portionRows{r, v}
				return nil
			}
			err := emit(r, v)
			if err != nil && record {
				recordPositions() // the portion stops here
			}
			return err
		}
		var h portionHooks
		if useAbandon {
			h.abandon = pd.abandon(pc)
		}
		h.rows = func(rowID int64, fields []scan.FieldRef) error {
			for i, f := range fields {
				v, err := pd.parse(i, f.Bytes)
				if err != nil {
					return fmt.Errorf("loader: row %d col %d: %w", rowID, cols[i], err)
				}
				if !useAbandon || len(pd.preds[i]) == 0 {
					pc.Observe(i, v)
				}
				vals[i] = v
				if record {
					offs[i] = append(offs[i], f.Offset)
				}
			}
			tally.parsed += int64(len(fields))
			if record {
				if posRows = append(posRows, rowID); len(posRows) == posBatch {
					recordPositions()
				}
			}
			if lateFilter && !conj.EvalRow(get) {
				return nil
			}
			if vecs == nil {
				rows = make([]int64, 0, size)
				vecs = make([]*storage.DenseColumn, len(keep))
				for j, i := range keep {
					vecs[j] = storage.NewDense(types[i], size)
				}
			}
			for j, i := range keep {
				vecs[j].Append(vals[i])
			}
			rows = append(rows, rowID)
			if len(rows) == batchSize {
				return flush()
			}
			return nil
		}
		h.end = func() error {
			err := flush()
			if record {
				recordPositions()
			}
			return err
		}
		return h
	}
	// Portion pruning rides on the pass: portions whose recorded bounds
	// exclude the conjunction are skipped — a skipped portion provably
	// holds no qualifying row, so results are identical to an unpruned
	// pass.
	if err := ps.run(cols, conj, l.Counters, begin); err != nil {
		return nil, nil, err
	}
	l.finish(ps, t)
	return cols, kept, nil
}

// PartialScanContext is the Partial Loads operator: it pushes the
// conjunction into tokenization (abandoning a row the moment a predicate
// fails), parses and materializes only needCols (and the predicate
// columns) of qualifying rows, and returns them as a View in row order.
// Nothing is stored in the adaptive store — this is V1's "throw the data
// away immediately after every query" behavior; V2 layers retention on
// top. A cancelled ctx aborts tokenization between chunks and the partial
// result is discarded.
func (l *Loader) PartialScanContext(ctx context.Context, t *catalog.Table, needCols []int, conj expr.Conjunction, tab int) (*exec.View, error) {
	cols, parts, err := l.partialPass(ctx, t, needCols, conj, 0, nil)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, pt := range parts {
		n += len(pt.rows)
	}
	v := exec.NewView()
	v.Rows = make([]int64, 0, n)
	for _, pt := range parts {
		v.Rows = append(v.Rows, pt.rows...)
	}
	for i, c := range cols {
		col := storage.NewDense(t.Schema().Columns[c].Type, n)
		for _, pt := range parts {
			if len(pt.rows) > 0 {
				col.AppendSelected(pt.vecs[i], nil, len(pt.rows))
			}
		}
		v.AddCol(exec.ColKey{Tab: tab, Col: c}, col)
	}
	return v, nil
}

// ScanBatchesContext is the streaming form of PartialScanContext: the same
// pass, emitting each portion's qualifying rows' outCols values (distinct
// columns) as column-oriented batches of batchSize rows, keyed under table
// ordinal tab, instead of buffering the whole pass into a View. Emitted
// batches are post-filter and dense (no selection vector); nothing is
// retained in the adaptive store.
//
// A batch is emitted when full, and a non-empty partial one when its
// portion ends, so a selective scan over a slow file hands over a row
// found early one portion later rather than at the end of the pass. With
// Workers > 1, emit is called from several worker goroutines at once and
// must be safe for that, and batches arrive out of file order. An emit
// error aborts the scan — after at most one more chunk of raw-file reads
// — and is returned as-is: that is the cursor's LIMIT/Close
// early-termination hook.
//
// The table's row count is recorded only when the scan runs to completion;
// an aborted pass has not seen every row.
func (l *Loader) ScanBatchesContext(ctx context.Context, t *catalog.Table, outCols []int, conj expr.Conjunction, tab, batchSize int, emit func(*exec.Batch) error) error {
	if batchSize <= 0 {
		batchSize = exec.DefaultBatchSize
	}
	_, _, err := l.partialPass(ctx, t, outCols, conj, batchSize, func(rows []int64, vecs []*storage.DenseColumn) error {
		b := &exec.Batch{N: len(rows), Cols: make(map[exec.ColKey]*storage.DenseColumn, len(outCols))}
		for j, c := range outCols {
			b.Cols[exec.ColKey{Tab: tab, Col: c}] = vecs[j]
		}
		return emit(b)
	})
	return err
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
