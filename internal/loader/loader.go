// Package loader implements the paper's adaptive loading operators
// (§3–§4): the pieces that bring data from raw flat files into the
// adaptive store, each with a different cost/benefit point:
//
//   - FullLoadContext — the classic DBMS behavior: load every column up
//     front (the MonetDB curve in Figures 3 and 4).
//   - ColumnLoadContext — load whole missing columns, triggered by the
//     query that needs them (the Column Loads curve).
//   - PartialScanContext — push the WHERE clause into loading, materialize
//     only qualifying values, keep nothing (Partial Loads V1);
//     ScanBatchesContext is its streaming form.
//   - PartialLoadV2Context — like PartialScanContext but qualifying values
//     are retained in sparse columns and a covered-region table of contents
//     lets future queries reuse them (Partial Loads V2).
//   - SplitColumnLoadContext — ColumnLoadContext through the split-file
//     registry, creating per-column files as a side effect (Split Files).
//   - ExtendTail — the catalog's tail pass (catalog.TailPass): after rows
//     are appended to the raw file, a column load over just the appended
//     bytes, whose values, positions, synopsis portion and re-qualified
//     region rows the catalog installs (§4.1.5: the engine learns every
//     time it touches the file, appends included).
//
// Every query-driven operator takes a context: a cancelled ctx stops its
// scan between chunks. All operators feed the positional map as a free
// side effect of tokenization, and exploit it to skip tokenization of
// leading attributes on later loads. The column-granular loads
// (ColumnLoadContext, its positional variant, and the tail pass) set a
// pass' offsets into one row-indexed posmap.Run per column — lock-free by
// row id, on a parallel pass or a sequential one — and publish them only
// once the pass has succeeded, next to its dense values: a column load
// installs each Run with PosMap.InstallRun, and the catalog records the
// tail's offsets with PosMap.RecordRun at the old row count. A failed
// pass installs neither. Work counters are tallied per portion and
// flushed once per portion or pass, never per value.
package loader

import (
	"context"
	"fmt"
	"sort"

	"nodb/internal/catalog"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/posmap"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
	"nodb/internal/vfs"
)

// Loader executes adaptive loading operators against catalog tables.
type Loader struct {
	// Counters receives work accounting; may be nil.
	Counters *metrics.Counters
	// Workers is the tokenization parallelism; 0 (the default) means one
	// worker per CPU, 1 (or negative) pins a sequential scan.
	Workers int
	// ChunkSize overrides the scan chunk size (default scan.DefaultChunkSize).
	ChunkSize int
	// RecordPositions feeds the table's positional map during loads.
	RecordPositions bool
	// UsePositions exploits the positional map to skip tokenization of
	// leading attributes when its coverage allows.
	UsePositions bool
	// DisableEarlyAbandon turns off predicate push-down into
	// tokenization: partial scans then tokenize and parse every requested
	// attribute of every row and filter afterwards (for ablations).
	DisableEarlyAbandon bool
	// UseSynopsis enables the per-portion scan synopsis (zone maps): every
	// tokenizing pass contributes per-portion min/max bounds as a free
	// byproduct, selective scans then skip portions whose bounds exclude
	// the predicate, and the learned portion layout replaces the
	// boundary-discovery pre-pass of later scans.
	UseSynopsis bool
	// FS is the filesystem raw files are read through; nil means the
	// real disk. Tests substitute a fault-injecting FS here.
	FS vfs.FS
}

// synFor returns the table's synopsis when collection is enabled.
func (l *Loader) synFor(t *catalog.Table) *synopsis.Synopsis {
	if !l.UseSynopsis {
		return nil
	}
	return t.Syn
}

// colTypes returns the schema types of cols, aligned.
func colTypes(sch *schema.Schema, cols []int) []schema.Type {
	out := make([]schema.Type, len(cols))
	for i, c := range cols {
		out[i] = sch.Columns[c].Type
	}
	return out
}

// countedRows returns the total row count of a portion layout, or -1 when
// a portion is uncounted (a single-portion stream that numbers rows as it
// goes).
func countedRows(ports []scan.PortionInfo) int64 {
	var n int64
	for _, p := range ports {
		if p.Rows < 0 {
			return -1
		}
		n += p.Rows
	}
	return n
}

// portionedScan bundles the per-pass synopsis wiring every loading
// operator shares: a scanner that adopted the table's learned layout, the
// portion set, and the collector feeding bounds back to the synopsis.
type portionedScan struct {
	sc        *scan.Scanner
	syn       *synopsis.Synopsis
	collector *synopsis.Collector
	ports     []scan.PortionInfo
}

// openPortioned opens t's raw file for one pass over cols, wired to the
// table's synopsis: a learned layout replaces the boundary-discovery
// pre-pass, and when learn is set Portioned makes a first pass build one
// worth remembering. A pass that may not learn (a positional load) and
// finds no learned layout keeps the single-portion stream that reads the
// file exactly once, and feeds no synopsis. With the synopsis disabled
// this degrades to a plain scanner with inert hooks. Layout read and
// adoption both go through the collector, whose generation pin discards
// them if the synopsis is dropped (file edited) mid-pass.
func (l *Loader) openPortioned(ctx context.Context, t *catalog.Table, cols []int, learn bool) (*portionedScan, error) {
	syn := l.synFor(t)
	collector := synopsis.NewCollector(syn, cols, colTypes(t.Schema(), cols))
	opts := l.scanOpts(ctx, t)
	if syn != nil {
		opts.Layout = collector.Layout()
		opts.Portioned = learn
	}
	if !learn && opts.Layout == nil {
		opts.Workers, collector = 1, nil
	}
	sc, err := scan.Open(t.Path(), opts)
	if err != nil {
		return nil, err
	}
	ports, err := sc.Portions()
	if err != nil {
		return nil, err
	}
	collector.AdoptLayout(ports)
	return &portionedScan{
		sc:        sc,
		syn:       syn,
		collector: collector,
		ports:     ports,
	}, nil
}

// portionTally is one portion's count of values parsed and attributes
// tokenized by the loader's own handlers, padded to a cache line so
// portions on different workers never write the same line.
type portionTally struct {
	parsed, attrs int64
	_             [48]byte
}

// portionHooks are one portion's callbacks in a pass: rows and abandon
// for a column pass, lines for a line-level one, and end (optional),
// called on the portion's goroutine after its last row and before its
// bounds commit; an error from end fails the pass.
type portionHooks struct {
	rows    scan.RowHandler
	abandon scan.AbandonFunc
	lines   scan.LineHandler
	end     func() error
}

// run makes one pass through per-portion hooks: begin builds each
// portion's hooks around its synopsis accumulator and its own tally,
// bounds commit on portion end, and — when the synopsis can refute conj —
// portions are skipped. Pass an empty conjunction for loads that must
// visit every row. With cols nil the pass is line-level (ScanLines);
// otherwise it tokenizes cols. The pass adds the tallies' sums to
// counters once, on every return path, so the counts stay exact without
// a shared atomic per row.
func (ps *portionedScan) run(cols []int, conj expr.Conjunction, counters *metrics.Counters, begin func(p scan.PortionInfo, pc *synopsis.PortionAcc, tally *portionTally) portionHooks) error {
	tallies := make([]portionTally, len(ps.ports))
	ends := make([]func() error, len(ps.ports))
	if counters != nil {
		defer func() {
			var parsed, attrs int64
			for i := range tallies {
				parsed += tallies[i].parsed
				attrs += tallies[i].attrs
			}
			counters.AddValuesParsed(parsed)
			counters.AddAttrsTokenized(attrs)
		}()
	}
	start := func(p scan.PortionInfo) portionHooks {
		h := begin(p, ps.collector.Begin(p), &tallies[p.Index])
		ends[p.Index] = h.end
		return h
	}
	pf := scan.PortionFuncs{
		Begin: func(p scan.PortionInfo) (scan.RowHandler, scan.AbandonFunc) {
			h := start(p)
			return h.rows, h.abandon
		},
		End: func(p scan.PortionInfo, n int64) error {
			if end := ends[p.Index]; end != nil {
				if err := end(); err != nil {
					return err
				}
			}
			ps.collector.Commit(p, n)
			return nil
		},
	}
	if pr := ps.syn.Pruner(conj); pr != nil {
		pf.Skip = pr.Skip
	}
	if cols == nil {
		pf.Lines = func(p scan.PortionInfo) scan.LineHandler { return start(p).lines }
		return ps.sc.ScanLines(pf)
	}
	return ps.sc.ScanColumnsPortioned(cols, pf)
}

// finish records a completed pass' row-count discovery — every row was
// tokenized exactly once or sat in a skipped portion of known size — and
// the synopsis-hit counter.
func (l *Loader) finish(ps *portionedScan, t *catalog.Table) {
	t.SetNumRows(ps.sc.RowsScanned() + ps.sc.RowsSkipped())
	if l.Counters != nil && ps.sc.PortionsSkipped() > 0 {
		l.Counters.AddSynopsisHit(1)
	}
}

func (l *Loader) scanOpts(ctx context.Context, t *catalog.Table) scan.Options {
	sch := t.Schema()
	return scan.Options{
		Delimiter:  sch.Delimiter,
		Format:     sch.Format,
		FieldNames: sch.FieldNames(),
		Workers:    l.Workers,
		ChunkSize:  l.ChunkSize,
		SkipHeader: sch.HasHeader,
		Counters:   l.Counters,
		Context:    ctx,
		FS:         l.FS,
	}
}

// parsers are one format's raw-field parsers, by column type. NDJSON
// fields are raw JSON tokens (delayed parsing leaves them untouched until
// here): strings unquote, numbers parse from their textual form, and
// composite values keep their raw JSON text.
type parsers struct {
	ints   func([]byte) (int64, error)
	floats func([]byte) (float64, error)
	strs   func([]byte) (string, error)
}

func parsersFor(format scan.Format) parsers {
	if format == scan.FormatNDJSON {
		return parsers{scan.ParseJSONInt64, scan.ParseJSONFloat64, scan.ParseJSONString}
	}
	return parsers{scan.ParseInt64, scan.ParseFloat64, func(b []byte) (string, error) { return string(b), nil }}
}

// parseField converts one raw field to a typed value.
func parseField(b []byte, typ schema.Type, format scan.Format) (storage.Value, error) {
	p := parsersFor(format)
	switch typ {
	case schema.Int64:
		v, err := p.ints(b)
		return storage.IntValue(v), err
	case schema.Float64:
		v, err := p.floats(b)
		return storage.FloatValue(v), err
	default:
		v, err := p.strs(b)
		return storage.StringValue(v), err
	}
}

// fieldSink parses one raw field of a loaded column straight into the
// column's typed slice at row and folds the value into the portion's
// bounds (pc may be nil); no storage.Value is built. Column loads pick one
// per column per pass, by format and type.
type fieldSink func(b []byte, row int, pc *synopsis.PortionAcc) error

// newSink returns the sink storing into d, whose values are observed as
// position idx of the pass' columns. A row one past the end of d appends:
// a single uncounted portion streams its rows in order.
func newSink(d *storage.DenseColumn, idx int, format scan.Format) fieldSink {
	p := parsersFor(format)
	switch d.Typ {
	case schema.Int64:
		return func(b []byte, row int, pc *synopsis.PortionAcc) error {
			v, err := p.ints(b)
			if err != nil {
				return err
			}
			put(&d.Ints, row, v)
			pc.ObserveInt(idx, v)
			return nil
		}
	case schema.Float64:
		return func(b []byte, row int, pc *synopsis.PortionAcc) error {
			v, err := p.floats(b)
			if err != nil {
				return err
			}
			put(&d.Floats, row, v)
			pc.ObserveFloat(idx, v)
			return nil
		}
	default:
		return func(b []byte, row int, pc *synopsis.PortionAcc) error {
			v, err := p.strs(b)
			if err != nil {
				return err
			}
			put(&d.Strs, row, v)
			pc.ObserveString(idx, v)
			return nil
		}
	}
}

// put stores v at (*s)[row], appending when row is the next index.
func put[T any](s *[]T, row int, v T) {
	if row < len(*s) {
		(*s)[row] = v
		return
	}
	*s = append(*s, v)
}

// FullLoadContext loads every column of the table (classic up-front
// loading), with cooperative cancellation.
func (l *Loader) FullLoadContext(ctx context.Context, t *catalog.Table) error {
	all := make([]int, t.Schema().NumCols())
	for i := range all {
		all[i] = i
	}
	return l.ColumnLoadContext(ctx, t, all)
}

// ColumnLoadContext fully loads the given columns from the raw file.
// Columns that are already dense are skipped; the rest are brought in with
// one scan (the paper's "one adaptive load operator to bring in one go all
// missing columns"). When the positional map covers an anchor attribute
// for every row, tokenization starts there instead of at the row start.
// A cancelled ctx aborts the scan between chunks, leaving the table's
// loaded state untouched.
func (l *Loader) ColumnLoadContext(ctx context.Context, t *catalog.Table, cols []int) error {
	t.LockLoads()
	defer t.UnlockLoads()
	return l.columnLoadLocked(ctx, t, cols)
}

func (l *Loader) columnLoadLocked(ctx context.Context, t *catalog.Table, cols []int) error {
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

	if l.UsePositions && l.tryPositionalColumnLoad(ctx, t, missing) {
		return nil
	}

	ps, err := l.openPortioned(ctx, t, missing, true)
	if err != nil {
		return err
	}
	cl := newColumnLoad(t, missing, countedRows(ps.ports), ps.sc.Size(), l.RecordPositions)

	// A full column load observes every row, so each portion it completes
	// gains exact bounds for every loaded column — synopsis collection as
	// a free byproduct of work the load does anyway.
	begin := func(_ scan.PortionInfo, pc *synopsis.PortionAcc, tally *portionTally) portionHooks {
		return portionHooks{rows: cl.handler(pc, tally)}
	}
	// Loads must visit every row (dense columns are complete), so no
	// conjunction is offered for pruning.
	if err := ps.run(missing, expr.Conjunction{}, l.Counters, begin); err != nil {
		return err
	}
	return cl.commit(l, t, ps)
}

// columnLoad is one pass' worth of loaded columns: dense values and, when
// positions are recorded, their offsets, each indexed by row id.
type columnLoad struct {
	cols  []int
	rows  int64 // the rows the pass expects, or -1 when unknown
	dense []*storage.DenseColumn
	sinks []fieldSink
	runs  []*posmap.Run // nil unless the pass records positions
}

// newColumnLoad prepares the columns a pass over a file of size bytes
// loads, and their offsets when record is set. Known rows (a counted
// layout: every multi-portion one, so every parallel pass) size the
// columns up front and rows scatter into them by row id; row ids are
// disjoint across portions, so the slots need no lock. Unknown rows (-1:
// a single uncounted portion, a sequential stream with no counting
// pre-pass that reads the file exactly once) append instead, each row
// landing one past the end (put). The handler's bound check keeps a
// miscounted layout from appending to a scattered column.
func newColumnLoad(t *catalog.Table, cols []int, rows, size int64, record bool) *columnLoad {
	sch := t.Schema()
	cl := &columnLoad{cols: cols, rows: rows, dense: make([]*storage.DenseColumn, len(cols)), sinks: make([]fieldSink, len(cols))}
	record = record && t.PosMap != nil
	if record {
		cl.runs = make([]*posmap.Run, len(cols))
	}
	for i, c := range cols {
		if rows >= 0 {
			cl.dense[i] = storage.NewDenseSized(sch.Columns[c].Type, int(rows))
		} else {
			cl.dense[i] = storage.NewDense(sch.Columns[c].Type, 1024)
		}
		if record {
			cl.runs[i] = posmap.NewRun(max(rows, 0), size)
		}
		cl.sinks[i] = newSink(cl.dense[i], i, sch.Format)
	}
	return cl
}

// handler returns one portion's row handler: it parses the row's fields
// into their columns, folding the values into the portion's bounds, and
// records their offsets.
func (cl *columnLoad) handler(pc *synopsis.PortionAcc, tally *portionTally) scan.RowHandler {
	return func(rowID int64, fields []scan.FieldRef) error {
		if cl.rows >= 0 && rowID >= cl.rows {
			return fmt.Errorf("loader: row %d beyond the %d rows the layout counted", rowID, cl.rows)
		}
		for i, f := range fields {
			if err := cl.sinks[i](f.Bytes, int(rowID), pc); err != nil {
				return fmt.Errorf("loader: row %d col %d: %w", rowID, cl.cols[i], err)
			}
			if cl.runs != nil {
				cl.runs[i].Set(rowID, f.Offset)
			}
		}
		tally.parsed += int64(len(fields))
		return nil
	}
}

// commit checks that a completed pass wrote every slot exactly once, then
// records the pass and publishes its columns.
func (cl *columnLoad) commit(l *Loader, t *catalog.Table, ps *portionedScan) error {
	if n := ps.sc.RowsScanned(); cl.rows >= 0 && n != cl.rows {
		return fmt.Errorf("loader: scanned %d rows, the layout counted %d", n, cl.rows)
	}
	l.finish(ps, t)
	l.install(t, cl.cols, cl.dense, cl.runs)
	return nil
}

// install publishes a successful pass over cols: each column's dense
// values and, when runs is non-nil, its field offsets for rows 0..n-1.
func (l *Loader) install(t *catalog.Table, cols []int, dense []*storage.DenseColumn, runs []*posmap.Run) {
	var written int64
	for i, c := range cols {
		t.SetDense(c, dense[i])
		written += dense[i].MemSize()
		if runs != nil {
			t.PosMap.InstallRun(c, runs[i], int64(dense[i].Len()))
		}
	}
	if l.Counters != nil {
		// Model the cost of writing the loaded columns to the engine's
		// binary store (what a DBMS pays when the load exceeds memory).
		l.Counters.AddInternalBytesWritten(written)
	}
}

// DenseSourceFor assembles the executor's DenseSource over the listed
// columns; every column must be dense. counters may be nil.
func DenseSourceFor(t *catalog.Table, cols []int, counters *metrics.Counters) (exec.DenseSource, error) {
	src := exec.DenseSource{NumRows: t.NumRows(), Columns: map[int]*storage.DenseColumn{}, Counters: counters}
	for _, c := range cols {
		d := t.Dense(c)
		if d == nil {
			return exec.DenseSource{}, fmt.Errorf("loader: column %d of %s is not loaded", c, t.Name())
		}
		src.Columns[c] = d
	}
	return src, nil
}

// neededWithPreds returns the union of needCols and the conjunction's
// predicate columns, ascending and de-duplicated.
func neededWithPreds(needCols []int, conj expr.Conjunction) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range needCols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, c := range conj.Columns() {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}
