package loader

import (
	"context"
	"fmt"

	"nodb/internal/catalog"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/scan"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
)

// ScanBatchesContext is the streaming form of PartialScanContext: it pushes
// the conjunction into tokenization and appends each qualifying row's
// outCols values (distinct columns) straight into column-oriented batches
// of batchSize rows, keyed under table ordinal tab, instead of buffering
// the whole pass into a View. Emitted batches are post-filter and dense (no
// selection vector); nothing is retained in the adaptive store.
//
// Each portion fills batches of its own. A batch is emitted when full, and
// a non-empty partial one when its portion ends, so a selective scan over a
// slow file hands over a row found early one portion later rather than at
// the end of the pass. With Workers > 1, emit is called from several
// worker goroutines at once and must be safe for that, and batches arrive
// out of file order. An emit error aborts the scan — after at most one more
// chunk of raw-file reads — and is returned as-is: that is the cursor's
// LIMIT/Close early-termination hook.
//
// The table's row count is recorded only when the scan runs to completion;
// an aborted pass has not seen every row.
func (l *Loader) ScanBatchesContext(ctx context.Context, t *catalog.Table, outCols []int, conj expr.Conjunction, tab, batchSize int, emit func(*exec.Batch) error) error {
	if batchSize <= 0 {
		batchSize = exec.DefaultBatchSize
	}
	loadCols := neededWithPreds(outCols, conj)
	sch := t.Schema()
	pd, err := newPushdown(sch, loadCols, conj)
	if err != nil {
		return err
	}
	// outAt[i] is the batch column scanned column i fills, or -1 for a
	// column read only to evaluate a predicate.
	outAt := make([]int, len(loadCols))
	for i, lc := range loadCols {
		outAt[i] = -1
		for j, oc := range outCols {
			if oc == lc {
				outAt[i] = j
				break
			}
		}
	}

	ps, err := l.openPortioned(ctx, t, loadCols, true)
	if err != nil {
		return err
	}

	record := l.RecordPositions && t.PosMap != nil
	// The streaming path always pushes predicates down (DisableEarlyAbandon
	// is not honored here): it has no late filter, so disabling the abandon
	// hook would emit non-qualifying rows. The ablation measures the
	// buffered path.
	useAbandon := !conj.Empty()

	mkHandler := func(pc *synopsis.PortionAcc, tally *portionTally) (scan.RowHandler, func() error) {
		var cols []*storage.DenseColumn // the portion's current batch; nil until a row qualifies
		n := 0
		flush := func() error {
			if n == 0 {
				return nil
			}
			b := &exec.Batch{N: n, Cols: make(map[exec.ColKey]*storage.DenseColumn, len(outCols))}
			for j, c := range outCols {
				b.Cols[exec.ColKey{Tab: tab, Col: c}] = cols[j]
			}
			cols, n = nil, 0
			return emit(b)
		}
		handler := func(rowID int64, fields []scan.FieldRef) error {
			if cols == nil {
				cols = make([]*storage.DenseColumn, len(outCols))
				for j, c := range outCols {
					cols[j] = storage.NewDense(sch.Columns[c].Type, batchSize)
				}
			}
			for i, f := range fields {
				v, err := pd.parse(i, f.Bytes)
				if err != nil {
					return fmt.Errorf("loader: row %d col %d: %w", rowID, loadCols[i], err)
				}
				if !useAbandon || len(pd.preds[i]) == 0 {
					pc.Observe(i, v)
				}
				if j := outAt[i]; j >= 0 {
					cols[j].Append(v)
				}
				if record {
					t.PosMap.Record(loadCols[i], rowID, f.Offset)
				}
			}
			tally.parsed += int64(len(fields))
			if n++; n >= batchSize {
				return flush()
			}
			return nil
		}
		return handler, flush
	}

	begin := func(_ scan.PortionInfo, pc *synopsis.PortionAcc, tally *portionTally) portionHooks {
		var h portionHooks
		h.rows, h.end = mkHandler(pc, tally)
		if useAbandon {
			h.abandon = pd.abandon(pc)
		}
		return h
	}
	if err := ps.run(loadCols, conj, l.Counters, begin); err != nil {
		return err
	}
	l.finish(ps, t)
	return nil
}
