package exec

import (
	"fmt"

	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// DenseScan emits zero-copy windows over a fully loaded table's dense
// columns. Nothing is copied and nothing is allocated per batch: every
// batch is the same reused shell whose vectors are subslices of the
// store's columns.
type DenseScan struct {
	opBase
	src    DenseSource
	tab    int
	cols   []int
	win    *windows
	perRow int64 // internal bytes a scanned row charges: 8 per number, 24 per string column
}

// NewDenseScan builds a scan of cols (attribute indices) from src under
// table ordinal tab.
func NewDenseScan(src DenseSource, tab int, cols []int, batchSize int) (*DenseScan, error) {
	keys := make([]ColKey, len(cols))
	srcs := make([]*storage.DenseColumn, len(cols))
	var perRow int64
	for j, c := range cols {
		if srcs[j] = src.Columns[c]; srcs[j] == nil {
			return nil, fmt.Errorf("exec: scan column %d not loaded", c)
		}
		keys[j] = ColKey{Tab: tab, Col: c}
		if perRow += 8; srcs[j].Typ == schema.String {
			perRow += 16
		}
	}
	return &DenseScan{src: src, tab: tab, cols: cols, perRow: perRow, win: newWindows(keys, srcs, int(src.NumRows), batchSize)}, nil
}

func (s *DenseScan) Name() string {
	return fmt.Sprintf("DenseScan(t%d cols=%v)", s.tab, s.cols)
}
func (s *DenseScan) Children() []Operator { return nil }
func (s *DenseScan) Close()               {}

func (s *DenseScan) Next() (*Batch, error) {
	b := s.win.next()
	if b != nil && s.src.Counters != nil {
		s.src.Counters.AddInternalBytesRead(int64(b.N) * s.perRow)
	}
	return s.observe(b), nil
}

// ViewScan emits windows over an already-materialized View (partial loads,
// cached regions, adaptive-store results, join output) through one reused
// batch. Column keys pass through unchanged.
type ViewScan struct {
	opBase
	v   *View
	win *windows
}

func NewViewScan(v *View, batchSize int) *ViewScan {
	keys, srcs := v.columns()
	return &ViewScan{v: v, win: newWindows(keys, srcs, v.Len(), batchSize)}
}

func (s *ViewScan) Name() string         { return fmt.Sprintf("ViewScan(rows=%d)", s.v.Len()) }
func (s *ViewScan) Children() []Operator { return nil }
func (s *ViewScan) Close()               {}

func (s *ViewScan) Next() (*Batch, error) { return s.observe(s.win.next()), nil }

// FilterOp refines each batch's selection by a conjunction over table
// tab's columns, compiled once for the column types of the first batch.
// Survivor positions go to a selection vector the operator owns and reuses;
// values never move and the child's batch is never written. Batches left
// with zero survivors are absorbed, not emitted.
type FilterOp struct {
	opBase
	child  Operator
	tab    int
	conj   expr.Conjunction
	filter *expr.Filter
	in     *Batch // the child's batch being filtered
	slots  []int  // by predicate column, its slot in the child's batches
	get    func(col int) *storage.DenseColumn
	sel    []int32
	out    Batch
}

func NewFilterOp(child Operator, tab int, conj expr.Conjunction) *FilterOp {
	cols := 0
	for _, p := range conj.Preds {
		cols = max(cols, p.Col+1)
	}
	f := &FilterOp{child: child, tab: tab, conj: conj, slots: make([]int, cols)}
	f.get = func(col int) *storage.DenseColumn { return f.in.ColAt(ColKey{Tab: f.tab, Col: col}, &f.slots[col]) }
	return f
}

// NewDenseSelect is the one selection over dense columns: a DenseScan of
// cols under table ordinal tab, refined by a FilterOp when conj has
// predicates.
func NewDenseSelect(src DenseSource, tab int, cols []int, conj expr.Conjunction, batchSize int) (Operator, error) {
	scan, err := NewDenseScan(src, tab, cols, batchSize)
	if err != nil {
		return nil, err
	}
	if conj.Empty() {
		return scan, nil
	}
	return NewFilterOp(scan, tab, conj), nil
}

func (f *FilterOp) Name() string {
	return fmt.Sprintf("Filter(t%d %d preds)", f.tab, len(f.conj.Preds))
}
func (f *FilterOp) Children() []Operator { return []Operator{f.child} }
func (f *FilterOp) Close()               { f.child.Close() }

func (f *FilterOp) Next() (*Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		f.in = b
		if f.filter == nil {
			if err := f.compile(); err != nil {
				return nil, err
			}
		}
		if need := max(b.N, len(b.Sel)); cap(f.sel) < need {
			f.sel = make([]int32, need)
		}
		sel := f.filter.Apply(f.get, b.N, b.Sel, f.sel[:cap(f.sel)])
		if len(sel) == 0 {
			continue
		}
		if b.Sel == nil && len(sel) == b.N {
			// Every row of a dense batch survived: keep it dense so
			// downstream loops run without the indirection.
			sel = nil
		}
		f.out = Batch{N: b.N, Sel: sel, Keys: b.Keys, Vecs: b.Vecs}
		return f.observe(&f.out), nil
	}
}

// compile checks the predicate columns against the first batch and folds
// the conjunction for their types.
func (f *FilterOp) compile() error {
	for _, p := range f.conj.Preds {
		if f.get(p.Col) == nil {
			return fmt.Errorf("exec: predicate column %d not in batch", p.Col)
		}
	}
	filter := f.conj.Compile(func(col int) schema.Type { return f.get(col).Typ })
	f.filter = &filter
	return nil
}

// ProjectOp reshapes batches to the select list: output position i aliases
// the source column keys[i] under OutKey(i). Zero-copy — vectors and the
// selection vector pass through one reused output shell.
type ProjectOp struct {
	opBase
	child Operator
	keys  []ColKey
	slots []int
	out   Batch
}

func NewProjectOp(child Operator, keys []ColKey) *ProjectOp {
	out := Batch{Keys: outKeys(len(keys)), Vecs: make([]*storage.DenseColumn, len(keys))}
	return &ProjectOp{child: child, keys: keys, slots: make([]int, len(keys)), out: out}
}

func (p *ProjectOp) Name() string         { return fmt.Sprintf("Project(%v)", p.keys) }
func (p *ProjectOp) Children() []Operator { return []Operator{p.child} }
func (p *ProjectOp) Close()               { p.child.Close() }

func (p *ProjectOp) Next() (*Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	for i, k := range p.keys {
		if p.out.Vecs[i] = b.ColAt(k, &p.slots[i]); p.out.Vecs[i] == nil {
			return nil, fmt.Errorf("exec: projected column %v not in batch", k)
		}
	}
	p.out.N, p.out.Sel = b.N, b.Sel
	return p.observe(&p.out), nil
}

// LimitOp truncates the stream after n live rows and closes its child so
// upstream producers (raw-file scans) stop early. n < 0 means no limit.
// The child is closed on the pull after the quota is met, once the last
// batch it produced has been consumed.
type LimitOp struct {
	opBase
	child     Operator
	remaining int // rows still to pass; < 0 without a limit
	done      bool
	out       Batch
}

func NewLimitOp(child Operator, n int) *LimitOp { return &LimitOp{child: child, remaining: n} }

func (l *LimitOp) Name() string {
	if l.remaining < 0 {
		return "Limit(none)"
	}
	return fmt.Sprintf("Limit(%d)", l.remaining)
}
func (l *LimitOp) Children() []Operator { return []Operator{l.child} }
func (l *LimitOp) Close()               { l.child.Close() }

func (l *LimitOp) Next() (*Batch, error) {
	if l.done {
		return nil, nil
	}
	if l.remaining == 0 {
		l.done = true
		l.child.Close()
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		l.done = b == nil && err == nil
		return nil, err
	}
	if l.remaining < 0 {
		return l.observe(b), nil
	}
	if r := b.Rows(); r < l.remaining {
		l.remaining -= r
		return l.observe(b), nil
	}
	l.out = *b
	if b.Sel != nil {
		l.out.Sel = b.Sel[:l.remaining]
	} else if b.N > l.remaining {
		// Truncating a dense batch needs an explicit selection: its
		// vectors are the producer's and must not be re-sliced.
		l.out.Sel = liveRows(&Batch{N: l.remaining}, new([]int32))
	}
	l.remaining = 0
	return l.observe(&l.out), nil
}
