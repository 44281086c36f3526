// Package exec implements the physical query operators as a pull-based
// pipeline of Batch operators: scans, filters, projections, aggregation,
// grouping, a streaming hash join, sorts, top-k and limits (batch.go).
//
// Columns that are loaded in full enter the pipeline through DenseScan,
// whose zero-copy windows a FilterOp refines; that is the one selection
// over dense columns. A View is the materialized form: the columnar
// values of qualifying rows, which the partial loaders produce straight
// from the raw file (the paper's "intermediate results that are identical
// to what a selection operator over the complete column would create",
// §3.2) and which ViewScan feeds back into the pipeline. DrainView turns
// any operator's output into one.
package exec

import (
	"fmt"

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
// ids for views a partial scan of the raw file builds (nil otherwise). All
// columns have exactly Len() entries, aligned positionally.
type View struct {
	Rows []int64
	Cols map[ColKey]*storage.DenseColumn
	n    int // rows of a drained view with neither row ids nor columns (count(*) alone)
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
	return v.n
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
	// bytes selections touch (reported in the query's work counters).
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
