package loader

import (
	"context"
	"fmt"
	"sync"

	"nodb/internal/catalog"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/scan"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
)

// ScanRowsContext is the streaming form of PartialScanContext: it pushes
// the conjunction into tokenization and emits each qualifying row's outCols
// values (in outCols order) as soon as the row is parsed, instead of
// batching the whole pass into a View. Nothing is retained in the adaptive
// store.
//
// An error returned by emit aborts the scan mid-pass — after at most one
// more chunk of raw-file reads — and is returned as-is; that is the
// cursor's LIMIT/Close early-termination hook. The emitted value slice is
// freshly allocated per row; emit takes ownership. With Workers > 1, emit
// is called concurrently from multiple goroutines and must synchronize
// itself, and rows arrive out of file order.
//
// The table's row count is recorded only when the scan runs to completion;
// an aborted pass has not seen every row.
func (l *Loader) ScanRowsContext(ctx context.Context, t *catalog.Table, outCols []int, conj expr.Conjunction, emit func(rowID int64, vals []storage.Value) error) error {
	loadCols := neededWithPreds(outCols, conj)
	sch := t.Schema()
	for _, c := range loadCols {
		if c < 0 || c >= sch.NumCols() {
			return fmt.Errorf("loader: column %d out of range", c)
		}
	}
	// Position of each output column within the scanned columns.
	outAt := make([]int, len(outCols))
	for i, oc := range outCols {
		for j, lc := range loadCols {
			if lc == oc {
				outAt[i] = j
				break
			}
		}
	}

	predsAt := make([][]expr.Pred, len(loadCols))
	for i, c := range loadCols {
		predsAt[i] = conj.OnColumn(c)
	}

	ps, err := l.openPortioned(ctx, t, loadCols)
	if err != nil {
		return err
	}

	record := l.RecordPositions && t.PosMap != nil
	// Unlike PartialScan, the streaming path always pushes predicates
	// down (DisableEarlyAbandon is not honored here): it has no late
	// filter, so disabling the abandon hook would emit non-qualifying
	// rows. The ablation measures the buffered path.
	useAbandon := !conj.Empty()
	mkAbandon := func(pc *synopsis.PortionAcc) scan.AbandonFunc {
		return func(idx int, f scan.FieldRef) bool {
			if len(predsAt[idx]) == 0 {
				return false
			}
			v, err := parseField(f.Bytes, sch.Columns[loadCols[idx]].Type, sch.Format)
			if err != nil {
				return true // unparseable under predicate: treat as non-qualifying
			}
			pc.Observe(idx, v)
			for _, p := range predsAt[idx] {
				if !p.Eval(v) {
					return true
				}
			}
			return false
		}
	}

	mkHandler := func(pc *synopsis.PortionAcc, nparsed *int64) scan.RowHandler {
		return func(rowID int64, fields []scan.FieldRef) error {
			parsed := make([]storage.Value, len(loadCols))
			for i, f := range fields {
				v, err := parseField(f.Bytes, sch.Columns[loadCols[i]].Type, sch.Format)
				if err != nil {
					return fmt.Errorf("loader: row %d col %d: %w", rowID, loadCols[i], err)
				}
				parsed[i] = v
				if !useAbandon || len(predsAt[i]) == 0 {
					pc.Observe(i, v)
				}
			}
			*nparsed += int64(len(fields))
			if record {
				for i, f := range fields {
					t.PosMap.Record(loadCols[i], rowID, f.Offset)
				}
			}
			vals := make([]storage.Value, len(outCols))
			for i, at := range outAt {
				vals[i] = parsed[at]
			}
			return emit(rowID, vals)
		}
	}

	ab := mkAbandon
	if !useAbandon {
		ab = nil
	}
	if err := ps.run(loadCols, conj, l.Counters, mkHandler, ab); err != nil {
		return err
	}
	l.finish(ps, t)
	return nil
}

// ScanBatchesContext is ScanRowsContext's vectorized sibling: qualifying
// rows accumulate into column-oriented batches of batchSize rows (keyed
// under table ordinal tab), and emit receives each full batch plus the
// final partial one. Predicates are pushed into tokenization exactly as
// in the row form — emitted batches are post-filter, dense (no selection
// vector), and nothing is retained in the adaptive store.
//
// An emit error aborts the scan and is returned as-is (the LIMIT
// early-termination hook). emit is always called from the scan's own
// goroutines but never concurrently; with Workers > 1 rows land in
// batches out of file order.
func (l *Loader) ScanBatchesContext(ctx context.Context, t *catalog.Table, outCols []int, conj expr.Conjunction, tab, batchSize int, emit func(*exec.Batch) error) error {
	if batchSize <= 0 {
		batchSize = exec.DefaultBatchSize
	}
	sch := t.Schema()

	var mu sync.Mutex
	cols := make([]*storage.DenseColumn, len(outCols))
	reset := func() {
		for i, c := range outCols {
			cols[i] = storage.NewDense(sch.Columns[c].Type, batchSize)
		}
	}
	reset()
	n := 0
	flush := func() error {
		if n == 0 {
			return nil
		}
		b := &exec.Batch{N: n, Cols: make(map[exec.ColKey]*storage.DenseColumn, len(outCols))}
		for i, c := range outCols {
			b.Cols[exec.ColKey{Tab: tab, Col: c}] = cols[i]
		}
		reset()
		n = 0
		return emit(b)
	}

	err := l.ScanRowsContext(ctx, t, outCols, conj, func(rowID int64, vals []storage.Value) error {
		mu.Lock()
		defer mu.Unlock()
		for i, v := range vals {
			cols[i].Append(v)
		}
		n++
		if n >= batchSize {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}
