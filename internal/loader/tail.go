package loader

import (
	"context"
	"fmt"

	"nodb/internal/catalog"
	"nodb/internal/expr"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
)

// ExtendTail is the catalog's tail pass (catalog.TailPass): one
// sequential pass over the bytes a prefix-stable growth appended, on a
// column load's machinery. Its typed sinks parse the tail's values, its
// tallies count them, RecordPositions gates the tail positions and
// UseSynopsis the tail's synopsis portion. The pass installs nothing: it returns the
// update for the catalog to install, and on an error the catalog drops
// the table's learned state instead. The caller holds the table's load
// lock.
func (l *Loader) ExtendTail(t *catalog.Table, g catalog.Growth) (*catalog.TailUpdate, error) {
	opts := l.scanOpts(context.Background(), t)
	// The tail starts past any header, on a row boundary.
	opts.Workers, opts.SkipHeader, opts.StartOffset, opts.MaxOffset = 1, false, g.Off, g.End
	sc, err := scan.Open(t.Path(), opts)
	if err != nil {
		return nil, err
	}
	ports, err := sc.Portions()
	if err != nil {
		return nil, err
	}
	ps := &portionedScan{sc: sc, ports: ports}

	sch := t.Schema()
	cols := l.tailCols(t, g)
	cl := newColumnLoad(t, cols, -1, l.RecordPositions)
	var acc *synopsis.PortionAcc
	if l.synFor(t).Layout() != nil {
		acc = synopsis.NewPortionAcc(scan.PortionInfo{Off: g.Off, End: g.End, FirstRow: g.Rows}, cols, colTypes(sch, cols))
	}
	begin := func(p scan.PortionInfo, _ *synopsis.PortionAcc, tally *portionTally) portionHooks {
		return cl.portion(p, acc, tally)
	}
	if err := ps.run(cols, expr.Conjunction{}, l.Counters, begin); err != nil {
		return nil, err
	}
	n := sc.RowsScanned()
	if n <= 0 {
		return nil, fmt.Errorf("loader: appended tail of %s tokenized no rows", t.Path())
	}
	cl.settle(n)

	tail := make(map[int]*storage.DenseColumn, len(cols))
	u := &catalog.TailUpdate{Rows: n, Dense: map[int]*storage.DenseColumn{}, Offsets: map[int][]int64{}}
	for i, c := range cols {
		tail[c] = cl.dense[i]
		if cl.runs != nil {
			u.Offsets[c] = cl.runs[i].Offsets(n)
		}
	}
	// Dense columns extend copy-on-write, sized exactly: readers of the
	// old arrays are unaffected, and the catalog swaps the copies in. An
	// int column's copy takes the wider of its width and the tail's.
	for c, d := range g.Dense {
		u.Dense[c] = d.Extend(tail[c])
	}
	if acc != nil {
		u.Portion = &synopsis.PortionState{
			Info: scan.PortionInfo{Off: g.Off, End: g.End, FirstRow: g.Rows, Rows: n},
			Cols: acc.Bounds(n),
		}
	}
	for _, r := range g.Regions {
		u.Regions = append(u.Regions, requalify(r, tail, g.Rows, n))
	}
	return u, nil
}

// tailCols returns the columns a tail pass tokenizes, ascending: what the
// learned structures hold — dense columns, coverage regions, recorded
// positions, synopsis bounds.
func (l *Loader) tailCols(t *catalog.Table, g catalog.Growth) []int {
	need := make([]bool, t.Schema().NumCols())
	add := func(c int) {
		if c >= 0 && c < len(need) {
			need[c] = true
		}
	}
	for c := range g.Dense {
		add(c)
	}
	for _, r := range g.Regions {
		for _, c := range r.Cols {
			add(c)
		}
		for c := range r.Ranges {
			add(c)
		}
	}
	if l.RecordPositions && t.PosMap != nil {
		for _, c := range t.PosMap.CoveredCols() {
			add(c)
		}
	}
	for _, ps := range l.synFor(t).Export() {
		for _, b := range ps.Cols {
			add(b.Col)
		}
	}
	cols := []int{} // not nil: a nil list makes a line-level pass
	for c, ok := range need {
		if ok {
			cols = append(cols, c)
		}
	}
	return cols
}

// requalify evaluates region r over the tail's n rows, whose first is
// row first: the rows inside every one of r's ranges qualify, with the
// values of r's columns. A region over a column the pass did not load, or
// with a range over a non-Int64 column, cannot be evaluated and is
// dropped.
func requalify(r catalog.Region, tail map[int]*storage.DenseColumn, first, n int64) catalog.RegionTail {
	for c := range r.Ranges {
		if d := tail[c]; d == nil || d.Typ != schema.Int64 {
			return catalog.RegionTail{Drop: true}
		}
	}
	for _, c := range r.Cols {
		if tail[c] == nil {
			return catalog.RegionTail{Drop: true}
		}
	}
	var sel []int
rows:
	for i := range int(n) {
		for c, iv := range r.Ranges {
			if !iv.Contains(tail[c].Int(i)) {
				continue rows
			}
		}
		sel = append(sel, i)
	}
	rt := catalog.RegionTail{Rows: make([]int64, len(sel)), Vals: make(map[int]func(int) storage.Value, len(r.Cols))}
	for j, i := range sel {
		rt.Rows[j] = first + int64(i)
	}
	for _, c := range r.Cols {
		d := tail[c]
		rt.Vals[c] = func(j int) storage.Value { return d.Value(sel[j]) }
	}
	return rt
}
