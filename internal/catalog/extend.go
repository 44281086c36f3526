package catalog

import (
	"fmt"
	"sort"
	"time"

	"nodb/internal/errs"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/splitfile"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
	"nodb/internal/vfs"
)

// IngestStats reports a table's append-ingestion accounting: how much of
// the raw file arrived through incremental tail extensions rather than
// being present at link time.
type IngestStats struct {
	// AppendedRows and AppendedBytes are the rows/bytes folded in by
	// incremental extensions since the table was linked.
	AppendedRows  int64 `json:"appended_rows"`
	AppendedBytes int64 `json:"appended_bytes"`
	// Refreshes counts completed incremental extensions.
	Refreshes int64 `json:"refreshes"`
	// LastRefresh is when the last extension finished (unix nanos, 0 when
	// none ran).
	LastRefresh int64 `json:"last_refresh,omitempty"`
}

// Ingest returns the table's append-ingestion counters.
func (t *Table) Ingest() IngestStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return IngestStats{
		AppendedRows:  t.appendedRows,
		AppendedBytes: t.appendedBytes,
		Refreshes:     t.refreshes,
		LastRefresh:   t.lastRefresh,
	}
}

// growLocked handles a prefix-stable growth detected mid-session: drain
// whatever the snapshot tier still holds for the old prefix (its sections
// could not be validated once the signature moves on), then extend the
// in-memory state over the appended tail. Caller holds snapMu.
func (t *Table) growLocked(old, cur Signature) error {
	if t.snap != nil {
		t.initSnapLocked()
		if pe := t.pendingExtend; pe != nil {
			// The snapshot described an even older prefix (saved before a
			// growth this process never observed). The grown restore already
			// drained it, so extend straight from that prefix.
			t.pendingExtend = nil
			old = *pe
		} else {
			all := make([]int, len(t.schema.Columns))
			for i := range all {
				all[i] = i
			}
			t.restoreDenseLocked(all)
			t.restorePosMapLocked()
			t.unspillAs(old)
		}
	}
	return t.extendForGrowth(old, cur)
}

// extendForGrowth folds the appended tail [old.Size, cur.Size) of the raw
// file into every learned structure in one sequential pass: dense columns
// gain the parsed tail values, the positional map gains the tail rows'
// field offsets, coverage regions absorb qualifying tail rows (so their
// claims stay exact over the grown table), the synopsis gains one tail
// portion with fresh zone-map bounds, and registered split files are
// appended to in place. Prefix-scoped state — everything learned before
// the append — is reused verbatim; that is the point.
//
// On error the caller must fall back to full invalidation, which also
// discards anything a partial pass touched (half-appended split files; the
// positional map gains its tail entries only once the pass succeeds).
// Caller holds snapMu; loadMu is taken here and held for the whole pass,
// so loads, merges and region bookkeeping cannot interleave.
func (t *Table) extendForGrowth(old, cur Signature) error {
	t.loadMu.Lock()
	defer t.loadMu.Unlock()

	// The appended range must end on a row boundary; otherwise a torn or
	// still-in-progress append would be folded in as half a row.
	f, err := vfs.Default(t.fs).Open(t.path)
	if err != nil {
		return errs.Wrap(errs.ErrRawIO, "catalog extend", t.path, err)
	}
	var last [1]byte
	_, rerr := f.ReadAt(last[:], cur.Size-1)
	f.Close()
	if rerr != nil || last[0] != '\n' {
		return fmt.Errorf("catalog: appended tail of %s does not end in a newline", t.path)
	}

	sch := t.schema
	ncols := len(sch.Columns)
	allCols := make([]int, ncols)
	for i := range allCols {
		allCols[i] = i
	}
	// Pin everything for the duration: the governor must not evict (and
	// thereby prune regions) while the pass relies on positional stability
	// of t.regions and on the dense arrays it is copying.
	unpin := t.Pin(allCols)
	defer unpin()

	type denseCopy struct {
		col    int
		typ    schema.Type
		ints   []int64
		floats []float64
		strs   []string
	}
	t.mu.RLock()
	oldRows := t.rows
	regions := append([]Region(nil), t.regions...)
	var dense []denseCopy
	var anySparse bool
	for c := range t.cols {
		if d := t.cols[c].Dense; d != nil {
			dense = append(dense, denseCopy{col: c, typ: d.Typ, ints: d.Ints, floats: d.Floats, strs: d.Strs})
		}
		if t.cols[c].Sparse != nil {
			anySparse = true
		}
	}
	t.mu.RUnlock()
	var splitsLive bool
	if t.Splits != nil {
		m := t.Splits.Manifest()
		splitsLive = len(m.Sidecars) > 0 || len(m.Rests) > 0
	}

	if oldRows < 0 {
		if len(dense) > 0 || anySparse || len(regions) > 0 || splitsLive {
			return fmt.Errorf("catalog: row-indexed state without a discovered row count")
		}
		// Nothing row-indexed was learned. The positional map's entries
		// (prefix offsets) stay valid as-is; a synopsis layout sized to the
		// old file cannot be extended without a row base and is dropped.
		t.Syn.Drop()
		t.finishGrowth(old, cur, 0, oldRows)
		return nil
	}

	// Dense columns extend copy-on-write: readers of the old arrays are
	// unaffected, and the extended copy is installed atomically afterwards.
	// The copy has room for the tail's rows at the old rows' mean length,
	// plus a quarter, so appending the tail seldom doubles it.
	spare := 16
	if old.Size > 0 {
		spare += int(float64(cur.Size-old.Size) / float64(old.Size) * float64(oldRows) * 1.25)
	}
	for i := range dense {
		d := &dense[i]
		switch d.typ {
		case schema.Int64:
			d.ints = append(make([]int64, 0, len(d.ints)+spare), d.ints...)
		case schema.Float64:
			d.floats = append(make([]float64, 0, len(d.floats)+spare), d.floats...)
		default:
			d.strs = append(make([]string, 0, len(d.strs)+spare), d.strs...)
		}
	}

	// Split files are extended in place through appending writers. A
	// failure here only loses the split files (always safe), not the
	// extension.
	var ext *splitfile.Extender
	if t.Splits != nil {
		var xerr error
		ext, xerr = t.Splits.NewExtender()
		if xerr != nil {
			t.Splits.Drop()
			ext = nil
		}
	}
	defer func() {
		if ext != nil {
			ext.Close() // error path; invalidation will drop the registry
		}
	}()

	// The pass tokenizes only what the learned structures need — unless
	// split files are registered, which re-serialize whole rows.
	needCols := make(map[int]bool)
	if ext != nil {
		for c := 0; c < ncols; c++ {
			needCols[c] = true
		}
	} else {
		for _, d := range dense {
			needCols[d.col] = true
		}
		for _, r := range regions {
			for _, c := range r.Cols {
				needCols[c] = true
			}
			for c := range r.Ranges {
				needCols[c] = true
			}
		}
		if t.PosMap != nil {
			for _, c := range t.PosMap.CoveredCols() {
				needCols[c] = true
			}
		}
		for _, ps := range t.Syn.Export() {
			for _, b := range ps.Cols {
				needCols[b.Col] = true
			}
		}
	}
	scanCols := make([]int, 0, len(needCols))
	for c := range needCols {
		if c >= 0 && c < ncols {
			scanCols = append(scanCols, c)
		}
	}
	sort.Ints(scanCols)
	colPos := make(map[int]int, len(scanCols))
	types := make([]schema.Type, len(scanCols))
	for i, c := range scanCols {
		colPos[c] = i
		types[i] = sch.Columns[c].Type
	}

	// Region tail evaluation state: qualifying rows and their values per
	// materialized column. A region whose predicate cannot be evaluated on
	// the tail (non-int64 range column, unparsable value) is dropped —
	// over-claiming coverage would serve incomplete results.
	type regTail struct {
		drop bool
		rows []int64
		vals map[int][]storage.Value
	}
	regTails := make([]regTail, len(regions))
	for i, r := range regions {
		regTails[i].vals = make(map[int][]storage.Value)
		for c := range r.Ranges {
			if sch.Columns[c].Type != schema.Int64 {
				regTails[i].drop = true
			}
		}
	}

	var acc *synopsis.PortionAcc
	if t.Syn.Layout() != nil {
		acc = synopsis.NewPortionAcc(scan.PortionInfo{Off: old.Size, End: cur.Size, FirstRow: oldRows}, scanCols, types)
	}

	sc, err := scan.Open(t.path, scan.Options{
		Delimiter:   sch.Delimiter,
		Format:      sch.Format,
		FieldNames:  sch.FieldNames(),
		Workers:     -1, // sequential: rows must arrive in order, and the tail is small
		Counters:    t.counters,
		StartOffset: old.Size,
		MaxOffset:   cur.Size,
		FS:          t.fs,
	})
	if err != nil {
		return err
	}

	// Tail positions are collected per column and installed as one run at
	// oldRows once the pass succeeds, like a column load's.
	var tailOffs [][]int64
	if t.PosMap != nil {
		tailOffs = make([][]int64, len(scanCols))
	}
	var tailRows int64
	rowVals := make([]storage.Value, len(scanCols))
	rowState := make([]int8, len(scanCols)) // 0 unparsed, 1 parsed, 2 failed
	raw := make([][]byte, ncols)
	handler := func(rowID int64, fields []scan.FieldRef) error {
		if len(fields) != len(scanCols) {
			return fmt.Errorf("catalog: tail row %d: got %d fields, want %d", rowID, len(fields), len(scanCols))
		}
		tailRows++
		grow := oldRows + rowID
		for i := range rowState {
			rowState[i] = 0
		}
		parse := func(i int) (storage.Value, bool) {
			if rowState[i] == 0 {
				v, perr := parseTailField(fields[i].Bytes, types[i], sch.Format)
				if perr != nil {
					rowState[i] = 2
				} else {
					rowState[i], rowVals[i] = 1, v
				}
			}
			return rowVals[i], rowState[i] == 1
		}

		if ext != nil {
			for i := range fields {
				raw[i] = fields[i].Bytes
			}
			if aerr := ext.AppendRow(raw); aerr != nil {
				ext.Close()
				ext = nil
				t.Splits.Drop()
			}
		}
		// Positional map: field offsets come free with the tokenization.
		for i := range tailOffs {
			tailOffs[i] = append(tailOffs[i], fields[i].Offset)
		}
		// Dense columns: a parse failure aborts the extension — a cold load
		// of the grown file would fail on the same value.
		for di := range dense {
			d := &dense[di]
			v, ok := parse(colPos[d.col])
			if !ok {
				return fmt.Errorf("catalog: tail row %d: unparsable value for column %d", rowID, d.col)
			}
			switch d.typ {
			case schema.Int64:
				d.ints = append(d.ints, v.I)
			case schema.Float64:
				d.floats = append(d.floats, v.F)
			default:
				d.strs = append(d.strs, v.S)
			}
		}
		// Coverage regions: collect qualifying tail rows for the merge.
		for ri := range regions {
			rt := &regTails[ri]
			if rt.drop {
				continue
			}
			qual := true
			for c, iv := range regions[ri].Ranges {
				v, ok := parse(colPos[c])
				if !ok {
					rt.drop = true
					qual = false
					break
				}
				if !iv.Contains(v.I) {
					qual = false
					break
				}
			}
			if !qual || rt.drop {
				continue
			}
			for _, c := range regions[ri].Cols {
				v, ok := parse(colPos[c])
				if !ok {
					rt.drop = true
					break
				}
				rt.vals[c] = append(rt.vals[c], v)
			}
			if !rt.drop {
				rt.rows = append(rt.rows, grow)
			}
		}
		// Zone-map bounds for the tail portion.
		if acc != nil {
			for i := range scanCols {
				if v, ok := parse(i); ok {
					acc.Observe(i, v)
				}
			}
		}
		return nil
	}
	scanErr := sc.ScanColumns(scanCols, handler, nil)
	if ext != nil {
		cerr := ext.Close()
		ext = nil
		if cerr != nil {
			t.Splits.Drop()
		}
	}
	if scanErr != nil {
		return scanErr
	}
	if tailRows <= 0 {
		return fmt.Errorf("catalog: appended tail of %s tokenized no rows", t.path)
	}

	// Install. Order matters for concurrent dense readers (which do not
	// hold loadMu): regions that became unevaluable are withdrawn and
	// qualifying tail values merged before the row count moves, and dense
	// columns are swapped for their extended copies before tail rows
	// become addressable.
	t.mu.Lock()
	var dropAny bool
	for ri := range regTails {
		if regTails[ri].drop {
			dropAny = true
		}
	}
	if dropAny {
		// t.regions is positionally unchanged since the capture: AddRegion
		// callers hold loadMu (held here) and the pins veto evictions, so
		// the captured indices still line up.
		kept := t.regions[:0]
		for ri := range t.regions {
			if ri < len(regTails) && regTails[ri].drop {
				continue
			}
			kept = append(kept, t.regions[ri])
		}
		t.regions = kept
	}
	t.mu.Unlock()

	for ri := range regions {
		rt := &regTails[ri]
		if rt.drop || len(rt.rows) == 0 {
			continue
		}
		for _, c := range regions[ri].Cols {
			vs := rt.vals[c]
			if len(vs) != len(rt.rows) {
				continue
			}
			t.MergeSparse(c, rt.rows, func(i int) storage.Value { return vs[i] })
		}
	}
	for _, d := range dense {
		t.SetDense(d.col, &storage.DenseColumn{Typ: d.typ, Ints: d.ints, Floats: d.floats, Strs: d.strs})
	}
	for i, offs := range tailOffs {
		t.PosMap.RecordRun(scanCols[i], oldRows, offs)
	}
	if acc != nil {
		ps := synopsis.PortionState{
			Info: scan.PortionInfo{Off: old.Size, End: cur.Size, FirstRow: oldRows, Rows: tailRows},
			Cols: acc.Bounds(tailRows),
		}
		if !t.Syn.ExtendTail([]synopsis.PortionState{ps}) {
			// A synopsis that cannot absorb the tail must not survive it:
			// its portions would be matched by index+offset against layouts
			// built over the grown file and could mis-prune.
			t.Syn.Drop()
		}
	} else {
		t.Syn.Drop()
	}
	t.finishGrowth(old, cur, tailRows, oldRows)
	return nil
}

// finishGrowth installs the new signature and ingest accounting, then
// resets the snapshot tier's restore state: every on-disk section was
// either drained into memory or superseded, and the next save rewrites
// the snapshot under the new signature. The old snapshot file stays on
// disk deliberately — if the process dies before the next save, a restart
// restores it as a grown prefix and replays this extension. Caller holds
// snapMu and loadMu.
func (t *Table) finishGrowth(old, cur Signature, tailRows, oldRows int64) {
	t.mu.Lock()
	if oldRows >= 0 {
		t.rows = oldRows + tailRows
	}
	t.sig = cur
	t.appendedRows += tailRows
	t.appendedBytes += cur.Size - old.Size
	t.refreshes++
	t.lastRefresh = time.Now().UnixNano()
	if t.gov != nil && !t.released {
		t.refreshCostsLocked()
	}
	t.mu.Unlock()
	if t.counters != nil {
		t.counters.AddTailExtension(1)
		t.counters.AddTailRowsAppended(tailRows)
	}
	if t.snap == nil {
		return
	}
	if t.snapReader != nil {
		t.snapReader.Close()
		t.snapReader = nil
	}
	t.posMapRestored = false
	t.lastSaveFP = "" // state changed: the next flush must rewrite
	t.mu.Lock()
	t.snapDenseBytes = nil
	t.spillPM, t.spillSplits = false, false
	t.snapPending.Store(false)
	t.mu.Unlock()
}

// parseTailField converts one raw field to a typed value, mirroring the
// loader's parsing exactly so extension-built values are byte-identical
// to cold-load values. (The loader cannot be imported from here — it
// depends on the catalog.)
func parseTailField(b []byte, typ schema.Type, format scan.Format) (storage.Value, error) {
	if format == scan.FormatNDJSON {
		switch typ {
		case schema.Int64:
			v, err := scan.ParseJSONInt64(b)
			if err != nil {
				return storage.Value{}, err
			}
			return storage.IntValue(v), nil
		case schema.Float64:
			v, err := scan.ParseJSONFloat64(b)
			if err != nil {
				return storage.Value{}, err
			}
			return storage.FloatValue(v), nil
		default:
			s, err := scan.ParseJSONString(b)
			if err != nil {
				return storage.Value{}, err
			}
			return storage.StringValue(s), nil
		}
	}
	switch typ {
	case schema.Int64:
		v, err := scan.ParseInt64(b)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.IntValue(v), nil
	case schema.Float64:
		v, err := scan.ParseFloat64(b)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.FloatValue(v), nil
	default:
		return storage.StringValue(string(b)), nil
	}
}
