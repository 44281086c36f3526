package loader

import (
	"context"
	"fmt"

	"nodb/internal/catalog"
	"nodb/internal/expr"
	"nodb/internal/posmap"
	"nodb/internal/scan"
	"nodb/internal/synopsis"
)

// tryPositionalColumnLoad loads the missing columns from positions the map
// already holds, on the same portioned pass as a plain load: parallel over
// the learned layout, reading the file once, and committing synopsis
// bounds for the loaded columns. Without a learned layout it streams the
// file once as a single portion instead of paying a counting pre-pass.
//
// A CSV load needs an anchor: an attribute 0 < j <= min(missing) the map
// covers for every row. Tokenization then starts at the anchor, costing
// (max(missing) - j + 1) attributes per row instead of (max(missing) + 1),
// and the pass records the positions it learns. An NDJSON load needs every
// missing column covered, since NDJSON positions point at the value tokens
// themselves: it jumps to each one and delimits it in place, with no key
// scanning at all, for all missing columns in one pass.
//
// It returns true when it handled the load. On any failure — an offset
// outside its row, positions dropped mid-pass, a row-count mismatch, a
// read error, cancellation — it installs nothing and returns false, and
// the caller runs the plain scan.
func (l *Loader) tryPositionalColumnLoad(ctx context.Context, t *catalog.Table, missing []int) bool {
	pm, rows := t.PosMap, t.NumRows()
	if pm == nil || rows <= 0 {
		return false
	}
	sch := t.Schema()
	json := sch.Format == scan.FormatNDJSON
	anchors := missing
	var rel []int // CSV: the missing attributes relative to the anchor
	if json {
		for _, c := range missing {
			if !pm.Covers(c, 0, rows) {
				return false
			}
		}
	} else {
		anchor := -1
		for _, c := range pm.CoveredCols() {
			if c <= missing[0] && c > anchor && pm.Covers(c, 0, rows) { // missing is sorted
				anchor = c
			}
		}
		if anchor <= 0 {
			// Tokenizing from the row start is what the plain scan does
			// anyway; no benefit.
			return false
		}
		anchors = []int{anchor}
		for _, c := range missing {
			rel = append(rel, c-anchor)
		}
	}

	ps, err := l.openPortioned(ctx, t, missing, false)
	if err != nil {
		return false
	}
	if n := countedRows(ps.ports); n >= 0 && n != rows {
		return false
	}
	// NDJSON positions are the anchors themselves, already in the map.
	cl := newColumnLoad(t, missing, rows, l.RecordPositions && !json)
	begin := func(p scan.PortionInfo, pc *synopsis.PortionAcc, tally *portionTally) portionHooks {
		ab, h := newAnchorBatch(pm, anchors, rows), cl.portion(p, pc, tally)
		store := h.rows
		if json {
			fields := make([]scan.FieldRef, len(missing))
			return portionHooks{lines: func(rowID, lineOff int64, line []byte) error {
				at, err := ab.at(rowID)
				if err != nil {
					return err
				}
				for i := range fields {
					off := ab.offs[i][at]
					r := off - lineOff
					if r < 0 || r >= int64(len(line)) {
						return fmt.Errorf("loader: row %d col %d: position %d outside the row", rowID, missing[i], off)
					}
					end, err := scan.ScanJSONValue(line, int(r))
					if err != nil {
						return fmt.Errorf("loader: row %d col %d: %w", rowID, missing[i], err)
					}
					fields[i] = scan.FieldRef{Bytes: line[r:end], Offset: off}
				}
				tally.attrs += int64(len(fields))
				return store(rowID, fields)
			}, end: h.end}
		}
		w := scan.NewWalker(sch.Delimiter, rel)
		return portionHooks{lines: func(rowID, lineOff int64, line []byte) error {
			at, err := ab.at(rowID)
			if err != nil {
				return err
			}
			off := ab.offs[0][at]
			r := off - lineOff
			if r < 0 || r > int64(len(line)) {
				return fmt.Errorf("loader: row %d: anchor position %d outside the row", rowID, off)
			}
			fields, n, err := w.Walk(line[r:], off, rowID)
			tally.attrs += n
			if err != nil {
				return err
			}
			return store(rowID, fields)
		}, end: h.end}
	}
	if ps.run(nil, expr.Conjunction{}, l.Counters, begin) != nil || cl.commit(l, t, ps) != nil {
		return false // fall back to the plain scan
	}
	if l.Counters != nil {
		// Every row started at positions the map served.
		l.Counters.AddPosMapHit(rows * int64(len(anchors)))
	}
	return true
}

// anchorBatchRows is how many rows' anchor offsets one map read fetches.
const anchorBatchRows = 1024

// anchorBatch serves one portion's anchor offsets, fetched from the map a
// batch of rows at a time: one read lock per batch per anchor, and a map
// dropped mid-pass fails the pass at its next batch.
type anchorBatch struct {
	pm      *posmap.Map
	anchors []int
	rows    int64     // the table's rows; no batch reaches past them
	first   int64     // row id of the batch's first row
	n       int64     // rows in the batch
	offs    [][]int64 // by anchor, then by row within the batch
}

func newAnchorBatch(pm *posmap.Map, anchors []int, rows int64) *anchorBatch {
	ab := &anchorBatch{pm: pm, anchors: anchors, rows: rows, offs: make([][]int64, len(anchors))}
	for i := range ab.offs {
		ab.offs[i] = make([]int64, anchorBatchRows)
	}
	return ab
}

// at returns the index of rowID's offsets in each anchor's offs, fetching
// the batch that starts at rowID when rowID is outside the current one.
func (ab *anchorBatch) at(rowID int64) (int64, error) {
	if i := rowID - ab.first; uint64(i) < uint64(ab.n) {
		return i, nil
	}
	return 0, ab.fetch(rowID)
}

func (ab *anchorBatch) fetch(rowID int64) error {
	ab.first, ab.n = rowID, min(anchorBatchRows, ab.rows-rowID)
	for j, c := range ab.anchors {
		if ab.n <= 0 || !ab.pm.Offsets(c, rowID, ab.offs[j][:ab.n]) {
			ab.n = 0
			return fmt.Errorf("loader: row %d: no recorded position for attribute %d", rowID, c)
		}
	}
	return nil
}
