package loader

import (
	"context"
	"fmt"
	"sort"

	"nodb/internal/catalog"
	"nodb/internal/metrics"
	"nodb/internal/scan"
	"nodb/internal/splitfile"
	"nodb/internal/storage"
)

// SplitColumnLoadContext loads the given columns like ColumnLoadContext,
// but reads through reg, t's split-file registry, and *cracks the file*
// as a side effect: every attribute the load tokenizes is written out as its
// own sidecar file, and the un-tokenized tail of each row goes to a
// residual file (paper §4.2). Later loads of already-split attributes read
// only their sidecar; loads of un-split attributes read only the residual
// file, which keeps shrinking as splits recurse. Cancellation is checked
// between source groups and inside each scan; a partially written split
// file is closed and not registered. The engine never calls it: Figure 4
// and the split-file ablation own their registries.
func (l *Loader) SplitColumnLoadContext(ctx context.Context, t *catalog.Table, reg *splitfile.Registry, cols []int) error {
	t.LockLoads()
	defer t.UnlockLoads()
	missing := t.MissingDense(cols)
	if len(missing) == 0 {
		if l.Counters != nil {
			l.Counters.AddCacheHit(1)
		}
		return nil
	}
	if l.Counters != nil {
		l.Counters.AddCacheMiss(1)
	}
	sort.Ints(missing)

	// Group the missing columns by the source file that currently holds
	// them.
	type group struct {
		src    splitfile.Source
		locals []int // local column indices within src
		origs  []int // original attribute ids, aligned with locals
	}
	groups := map[string]*group{}
	var order []string
	for _, c := range missing {
		src := reg.Lookup(c)
		g := groups[src.Path]
		if g == nil {
			g = &group{src: src}
			groups[src.Path] = g
			order = append(order, src.Path)
		}
		g.locals = append(g.locals, src.LocalCol)
		g.origs = append(g.origs, c)
	}

	for _, p := range order {
		g := groups[p]
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("loader: %w", err)
		}
		if err := l.loadGroup(ctx, t, reg, g.src, g.locals, g.origs); err != nil {
			return err
		}
	}
	return nil
}

// loadGroup loads origs (attribute ids) from one source file whose local
// column indices are locals. Multi-column sources are split as a side
// effect.
func (l *Loader) loadGroup(ctx context.Context, t *catalog.Table, reg *splitfile.Registry, src splitfile.Source, locals, origs []int) error {
	sch := t.Schema()
	counters := l.Counters
	if !src.Raw && counters != nil {
		// The scanner charges every byte it reads as raw; a split file's
		// go to SplitBytesRead instead.
		counters = &metrics.Counters{}
		defer chargeSplit(l.Counters, counters)
	}
	opts := scan.Options{
		Delimiter: sch.Delimiter,
		// Splitting requires rows in file order; keep one worker. Sidecar
		// reads have no ordering side effects but are single-column and
		// cheap anyway.
		Workers:    1,
		ChunkSize:  l.ChunkSize,
		SkipHeader: src.Raw && sch.HasHeader,
		Counters:   counters,
		Context:    ctx,
		FS:         l.FS,
	}
	sc, err := scan.Open(src.Path, opts)
	if err != nil {
		return err
	}

	// The scan is sequential (one worker), so columns fill by appending;
	// the row count falls out of the scan itself.
	dense := make([]*storage.DenseColumn, len(origs))
	for i, c := range origs {
		dense[i] = newLoadColumn(sch.Columns[c], -1)
	}
	// parseAt[i] is the index in origs to parse for tokenized local column
	// i, or -1 when the column is tokenized only for splitting.
	maxLocal := 0
	for _, lc := range locals {
		if lc > maxLocal {
			maxLocal = lc
		}
	}

	if len(src.Cols) == 1 {
		// Single-column sidecar: a plain scan, no splitting needed.
		return l.loadSidecar(t, reg, sc, src, origs[0], dense[0])
	}

	plan := splitfile.PlanSplit(src, locals)
	w, err := reg.NewWriter(plan)
	if err != nil {
		return err
	}
	// Tokenize all local columns 0..maxLocal: the tokenizer passes over
	// them anyway; capturing them makes them sidecars for free.
	tokCols := make([]int, maxLocal+1)
	for i := range tokCols {
		tokCols[i] = i
	}
	parseAt := make([]int, maxLocal+1)
	for i := range parseAt {
		parseAt[i] = -1
	}
	for i, lc := range locals {
		parseAt[lc] = i
	}

	fieldBytes := make([][]byte, maxLocal+1)
	splitErr := error(nil)
	var parsed int64
	err = sc.ScanColumnsTail(tokCols, func(rowID int64, fields []scan.FieldRef, tail scan.FieldRef) error {
		for i, f := range fields {
			if pi := parseAt[i]; pi >= 0 {
				v, err := parseField(f.Bytes, sch.Columns[origs[pi]].Type, sch.Format)
				if err != nil {
					return fmt.Errorf("loader: row %d col %d: %w", rowID, origs[pi], err)
				}
				dense[pi].Append(v)
				parsed++
			}
			fieldBytes[i] = f.Bytes
		}
		if splitErr == nil {
			splitErr = w.WriteRow(fieldBytes, tail.Bytes)
		}
		return nil
	}, nil)
	if l.Counters != nil {
		l.Counters.AddValuesParsed(parsed)
	}
	if err != nil {
		w.Abort() // the feed stopped early; the files hold a prefix
		return err
	}
	if splitErr != nil {
		w.Abort()
		return splitErr
	}
	// Validate row alignment before registering: a source that disagrees
	// with the table's row count must not contribute split files.
	if err := l.checkSplitRows(t, src, sc.RowsScanned()); err != nil {
		w.Abort()
		if !src.Raw {
			reg.Drop() // the existing split set is misaligned too
		}
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	l.install(t, origs, dense, nil)
	return nil
}

// chargeSplit adds the work of a split-file scan, counted in scanned, to
// c: the bytes it read as SplitBytesRead, its tokenizing as it is.
func chargeSplit(c, scanned *metrics.Counters) {
	s := scanned.Snapshot()
	c.AddSplitBytesRead(s.RawBytesRead)
	c.AddRowsTokenized(s.RowsTokenized)
	c.AddAttrsTokenized(s.AttrsTokenized)
	c.AddRowsAbandoned(s.RowsAbandoned)
}

// checkSplitRows validates that a split source agrees with the table's row
// count and records it when unknown.
func (l *Loader) checkSplitRows(t *catalog.Table, src splitfile.Source, rows int64) error {
	if tr := t.NumRows(); tr >= 0 && tr != rows {
		return fmt.Errorf("loader: source %s has %d rows, table has %d", src.Path, rows, tr)
	}
	t.SetNumRows(rows)
	return nil
}

// loadSidecar loads one attribute from its single-column split file.
func (l *Loader) loadSidecar(t *catalog.Table, reg *splitfile.Registry, sc *scan.Scanner, src splitfile.Source, orig int, dense *storage.DenseColumn) error {
	sch := t.Schema()
	err := sc.ScanColumns([]int{0}, func(rowID int64, fields []scan.FieldRef) error {
		v, err := parseField(fields[0].Bytes, sch.Columns[orig].Type, sch.Format)
		if err != nil {
			return fmt.Errorf("loader: sidecar %s row %d: %w", src.Path, rowID, err)
		}
		dense.Append(v)
		return nil
	}, nil)
	if l.Counters != nil {
		// One value per appended row, whatever ended the scan.
		l.Counters.AddValuesParsed(int64(dense.Len()))
	}
	if err != nil {
		return err
	}
	if err := l.checkSplitRows(t, src, sc.RowsScanned()); err != nil {
		// The registered sidecar is row-misaligned with the table; a
		// truncated or stale split set self-heals by rebuilding from raw.
		reg.Drop()
		return err
	}
	l.install(t, []int{orig}, []*storage.DenseColumn{dense}, nil)
	return nil
}
