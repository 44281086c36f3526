package catalog

import (
	"fmt"
	"time"

	"nodb/internal/errs"
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

// A TailPass scans the rows a prefix-stable growth appended to t's raw
// file and returns what they add to the table's learned structures,
// installing nothing itself. The catalog calls it with snapMu and
// loadMu held and every column pinned, so it must not take the load lock.
// The engine wires in the loader's pass (Options.TailPass).
type TailPass func(t *Table, g Growth) (*TailUpdate, error)

// Growth is what a tail pass extends: the appended bytes and the learned
// row-indexed state of the prefix before them.
type Growth struct {
	Off, End int64 // the appended byte range [Off, End)
	Rows     int64 // the prefix's rows: the tail's first row id
	// Dense holds the prefix's dense columns, by column.
	Dense map[int]*storage.DenseColumn
	// Regions are the prefix's coverage regions.
	Regions []Region
}

// TailUpdate is what a tail pass learned from the appended rows.
type TailUpdate struct {
	Rows int64 // the tail's rows
	// Dense maps every column of Growth.Dense to a copy extended over the
	// tail.
	Dense map[int]*storage.DenseColumn
	// Offsets maps a column to its tail rows' field offsets, the first at
	// row Growth.Rows; empty when the pass records no positions.
	Offsets map[int][]int64
	// Portion is the tail's synopsis portion; nil drops the synopsis.
	Portion *synopsis.PortionState
	// Regions is aligned with Growth.Regions.
	Regions []RegionTail
}

// RegionTail is one coverage region over the tail: its qualifying rows
// and their values, or Drop when the region cannot be evaluated there
// (over-claiming coverage would serve incomplete results).
type RegionTail struct {
	Drop bool
	Rows []int64 // qualifying tail rows by table row id, ascending
	// Vals maps each of the region's columns to its values, aligned with
	// Rows.
	Vals map[int]func(i int) storage.Value
}

// extendForGrowth folds the appended tail [old.Size, cur.Size) of the raw
// file into every learned structure: the tail pass scans it once, and
// this installs the result — dense columns gain the tail's values, the
// positional map its field offsets, coverage regions their qualifying
// tail rows (so their claims stay exact over the grown table), and the
// synopsis one tail portion. Prefix-scoped state — everything learned
// before the append — is reused verbatim; that is the point.
//
// On error the caller must fall back to full invalidation; nothing is
// installed before the pass succeeds. Caller holds snapMu; loadMu is
// taken here and held for the whole pass, so loads, merges and region
// bookkeeping cannot interleave. Only a table with a tail pass gets here.
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

	allCols := make([]int, len(t.schema.Columns))
	for i := range allCols {
		allCols[i] = i
	}
	// Pin everything for the duration: the governor must not evict (and
	// thereby prune regions) while the pass relies on positional stability
	// of t.regions and on the dense arrays it is copying.
	unpin := t.Pin(allCols)
	defer unpin()

	g := Growth{Off: old.Size, End: cur.Size, Dense: map[int]*storage.DenseColumn{}}
	t.mu.RLock()
	g.Rows = t.rows
	g.Regions = append([]Region(nil), t.regions...)
	var anySparse bool
	for c := range t.cols {
		if d := t.cols[c].Dense; d != nil {
			g.Dense[c] = d
		}
		if t.cols[c].Sparse != nil {
			anySparse = true
		}
	}
	t.mu.RUnlock()

	if g.Rows < 0 {
		if len(g.Dense) > 0 || anySparse || len(g.Regions) > 0 {
			return fmt.Errorf("catalog: row-indexed state without a discovered row count")
		}
		// Nothing row-indexed was learned. The positional map's entries
		// (prefix offsets) stay valid as-is; a synopsis layout sized to the
		// old file cannot be extended without a row base and is dropped.
		t.Syn.Drop()
		t.finishGrowth(old, cur, 0, g.Rows)
		return nil
	}

	u, err := t.tailPass(t, g)
	if err != nil {
		return err
	}

	// Install. Order matters for concurrent dense readers (which do not
	// hold loadMu): regions that became unevaluable are withdrawn and
	// qualifying tail values merged before the row count moves, and dense
	// columns are swapped for their extended copies before tail rows
	// become addressable.
	t.mu.Lock()
	// t.regions is positionally unchanged since the capture: AddRegion
	// callers hold loadMu (held here) and the pins veto evictions, so the
	// captured indices still line up.
	kept := t.regions[:0]
	for ri := range t.regions {
		if ri >= len(u.Regions) || !u.Regions[ri].Drop {
			kept = append(kept, t.regions[ri])
		}
	}
	t.regions = kept
	t.mu.Unlock()

	for ri, rt := range u.Regions {
		if rt.Drop || len(rt.Rows) == 0 {
			continue
		}
		for _, c := range g.Regions[ri].Cols {
			t.MergeSparse(c, rt.Rows, rt.Vals[c])
		}
	}
	for c, d := range u.Dense {
		t.SetDense(c, d)
	}
	for c, offs := range u.Offsets {
		t.PosMap.RecordRun(c, g.Rows, offs)
	}
	// A synopsis that cannot absorb the tail must not survive it: its
	// portions would be matched by index+offset against layouts built over
	// the grown file and could mis-prune.
	if u.Portion == nil || !t.Syn.ExtendTail([]synopsis.PortionState{*u.Portion}) {
		t.Syn.Drop()
	}
	t.finishGrowth(old, cur, u.Rows, g.Rows)
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
	if t.snap != nil {
		t.resetRestoreLocked()
	}
	t.mu.Unlock()
	if t.counters != nil {
		t.counters.AddTailExtension(1)
		t.counters.AddTailRowsAppended(tailRows)
	}
}
