// Package exec implements the physical query operators: selections over
// dense or cracked columns, aggregation, grouping, hash and merge joins,
// sorting and limits.
//
// The universal intermediate is the View: a typed, columnar batch holding
// the values of the qualifying rows only. Adaptive loading operators
// produce Views straight from the raw file (the paper's "intermediate
// results that are identical to what a selection operator over the
// complete column would create", §3.2); dense selections produce the same
// shape, so everything downstream is storage-agnostic.
package exec

import (
	"fmt"

	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// ColKey identifies a column within a (possibly joined) View: Tab is the
// table ordinal in the plan (0 = FROM table, 1 = first joined table, ...),
// Col the attribute index within that table.
type ColKey struct {
	Tab, Col int
}

func (k ColKey) String() string { return fmt.Sprintf("t%d.c%d", k.Tab, k.Col) }

// View is a columnar batch of qualifying rows. Rows holds the original row
// ids for single-table views (nil after a join). All columns have exactly
// Len() entries, aligned positionally.
type View struct {
	Rows []int64
	Cols map[ColKey]*storage.DenseColumn
}

// NewView returns an empty view.
func NewView() *View {
	return &View{Cols: make(map[ColKey]*storage.DenseColumn)}
}

// Len returns the number of qualifying rows.
func (v *View) Len() int {
	if v.Rows != nil {
		return len(v.Rows)
	}
	for _, c := range v.Cols {
		return c.Len()
	}
	return 0
}

// Col returns the column for key, or nil.
func (v *View) Col(k ColKey) *storage.DenseColumn { return v.Cols[k] }

// AddCol registers a column under key.
func (v *View) AddCol(k ColKey, c *storage.DenseColumn) { v.Cols[k] = c }

// Value returns the value of column k at position i.
func (v *View) Value(k ColKey, i int) storage.Value { return v.Cols[k].Value(i) }

// MemSize returns approximate heap bytes of the view.
func (v *View) MemSize() int64 {
	sz := int64(cap(v.Rows)) * 8
	for _, c := range v.Cols {
		sz += c.MemSize()
	}
	return sz
}

// DenseSource is the executor's handle on a fully loaded table: dense
// columns by attribute index plus the table's row count. The engine
// assembles it from the adaptive store.
type DenseSource struct {
	NumRows int64
	Columns map[int]*storage.DenseColumn
	// Counters, when non-nil, receives internal-read accounting for the
	// bytes selections touch (the cost model uses it to price cold runs
	// over the engine's binary store).
	Counters *metrics.Counters
}

// countScanBytes charges the bytes a predicate scan touches.
func (s DenseSource) countScanBytes(cols []int, rows int64) {
	if s.Counters == nil {
		return
	}
	var b int64
	for _, c := range cols {
		if d := s.Columns[c]; d != nil {
			if d.Typ == schema.String {
				b += rows * 24
			} else {
				b += rows * 8
			}
		}
	}
	s.Counters.AddInternalBytesRead(b)
}

// SelectDense scans the dense predicate columns, evaluates the conjunction
// and materializes needCols for qualifying rows into a View under table
// ordinal tab. Predicates must reference columns present in src.
func SelectDense(src DenseSource, conj expr.Conjunction, needCols []int, tab int) (*View, error) {
	for _, p := range conj.Preds {
		if src.Columns[p.Col] == nil {
			return nil, fmt.Errorf("exec: predicate column %d not loaded", p.Col)
		}
	}
	for _, c := range needCols {
		if src.Columns[c] == nil {
			return nil, fmt.Errorf("exec: needed column %d not loaded", c)
		}
	}

	n := int(src.NumRows)
	rowids := make([]int64, 0, n/8+1)
	src.countScanBytes(conj.Columns(), src.NumRows)

	if fast, ok := intOnlyPreds(conj, src); ok {
		for i := 0; i < n; i++ {
			if fast.eval(i) {
				rowids = append(rowids, int64(i))
			}
		}
	} else {
		get := func(i int) func(col int) storage.Value {
			return func(col int) storage.Value { return src.Columns[col].Value(i) }
		}
		for i := 0; i < n; i++ {
			if conj.EvalRow(get(i)) {
				rowids = append(rowids, int64(i))
			}
		}
	}
	return gatherDense(src, rowids, needCols, tab), nil
}

// intPredSet is the vectorizable fast path: every predicate is on an int64
// column with an int64 literal.
type intPredSet struct {
	cols  [][]int64
	preds []expr.Pred
}

func intOnlyPreds(conj expr.Conjunction, src DenseSource) (*intPredSet, bool) {
	s := &intPredSet{}
	for _, p := range conj.Preds {
		c := src.Columns[p.Col]
		if c.Typ != schema.Int64 || p.Val.Typ != schema.Int64 || (p.Between && p.Val2.Typ != schema.Int64) {
			return nil, false
		}
		s.cols = append(s.cols, c.Ints)
		s.preds = append(s.preds, p)
	}
	return s, true
}

func (s *intPredSet) eval(i int) bool {
	for k, p := range s.preds {
		if !p.EvalInt(s.cols[k][i]) {
			return false
		}
	}
	return true
}

// gatherDense materializes needCols of the given rows into a View.
func gatherDense(src DenseSource, rowids []int64, needCols []int, tab int) *View {
	src.countScanBytes(needCols, int64(len(rowids)))
	v := NewView()
	v.Rows = rowids
	for _, col := range needCols {
		base := src.Columns[col]
		out := storage.NewDense(base.Typ, len(rowids))
		switch base.Typ {
		case schema.Int64:
			for _, r := range rowids {
				out.Ints = append(out.Ints, base.Ints[r])
			}
		case schema.Float64:
			for _, r := range rowids {
				out.Floats = append(out.Floats, base.Floats[r])
			}
		default:
			for _, r := range rowids {
				out.Strs = append(out.Strs, base.Strs[r])
			}
		}
		v.AddCol(ColKey{Tab: tab, Col: col}, out)
	}
	return v
}
