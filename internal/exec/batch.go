package exec

import (
	"fmt"
	"strings"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// This file defines the vectorized execution core: a pull-based pipeline
// of operators exchanging column-oriented Batches of ~1024 rows. Scans
// emit zero-copy windows into dense columns; filters refine a selection
// vector without moving values; only operators that must regroup rows
// (joins, sorts, group-bys) materialize.

// DefaultBatchSize is the target rows per Batch. Large enough to amortize
// per-batch overhead (virtual calls, map lookups, allocation) over ~1k
// rows, small enough that a batch's working set stays cache-resident.
const DefaultBatchSize = 1024

// OutTab is the pseudo table ordinal of select-list output columns: once a
// projection/aggregation shapes the result, columns are keyed OutKey(i)
// for select-list position i, and downstream operators (sort, limit) plus
// the cursor drain are source-agnostic.
const OutTab = -1

// OutKey returns the ColKey of select-list output position i.
func OutKey(i int) ColKey { return ColKey{Tab: OutTab, Col: i} }

// Batch is a column-oriented packet of rows flowing between operators.
// The vectors hold N positions; Sel, when non-nil, lists the positions
// that are still alive (ascending). Filters record survivors in a Sel of
// their own instead of copying values.
//
// A batch belongs to the operator that produced it: it is valid until
// that producer's next Next or Close, which may reuse its shell, column
// map, selection vector and vectors for the following batch. A consumer
// never writes through a batch it received, and one that keeps rows past
// its child's next Next copies them (join builds, group-by keys, sorts,
// the cursor's Row and the result-cache tee all do).
type Batch struct {
	N    int
	Sel  []int32
	Cols map[ColKey]*storage.DenseColumn
}

// Rows returns the number of live rows.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Col returns the column vector for key, or nil.
func (b *Batch) Col(k ColKey) *storage.DenseColumn { return b.Cols[k] }

// OpStats counts what one operator emitted.
type OpStats struct {
	Batches int64
	Rows    int64
}

// Operator is one node of the vectorized pipeline. Next returns the next
// batch, or (nil, nil) at end of stream; batches never have zero live
// rows, and each stays valid only until the following Next or Close (see
// Batch). Close releases resources early (a limit cutting off a raw scan);
// it must be idempotent. Stats reports batches/rows emitted so far —
// Explain renders them per node after execution.
type Operator interface {
	Name() string
	Children() []Operator
	Next() (*Batch, error)
	Close()
	Stats() OpStats
}

// opBase carries emission counters for operators to embed.
type opBase struct {
	stats OpStats
}

func (o *opBase) Stats() OpStats { return o.stats }

func (o *opBase) observe(b *Batch) *Batch {
	if b != nil {
		o.stats.Batches++
		o.stats.Rows += int64(b.Rows())
	}
	return b
}

// ExplainTree renders the operator tree with per-operator batch/row
// counters, one node per line, children indented under parents.
func ExplainTree(root Operator) string {
	var sb strings.Builder
	var walk func(op Operator, depth int)
	walk = func(op Operator, depth int) {
		st := op.Stats()
		fmt.Fprintf(&sb, "%s%s  (batches=%d rows=%d)\n",
			strings.Repeat("  ", depth), op.Name(), st.Batches, st.Rows)
		for _, c := range op.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return sb.String()
}

func newColMap(n int) map[ColKey]*storage.DenseColumn {
	return make(map[ColKey]*storage.DenseColumn, n)
}

// windows emits positions [0, n) of a fixed set of columns as zero-copy
// windows of size rows through one reused batch: the shell, its column
// map and the window headers are allocated once, so emitting costs no
// allocation per batch.
type windows struct {
	b            Batch
	srcs         []*storage.DenseColumn
	wins         []storage.DenseColumn
	pos, n, size int
}

func newWindows(keys []ColKey, srcs []*storage.DenseColumn, n, size int) *windows {
	if size <= 0 {
		size = DefaultBatchSize
	}
	w := &windows{b: Batch{Cols: newColMap(len(keys))}, srcs: srcs, wins: make([]storage.DenseColumn, len(srcs)), n: n, size: size}
	for j, k := range keys {
		w.wins[j].Typ = srcs[j].Typ
		w.b.Cols[k] = &w.wins[j]
	}
	return w
}

// next returns the following window, or nil once all n positions are out.
func (w *windows) next() *Batch {
	if w.pos >= w.n {
		return nil
	}
	lo := w.pos
	w.pos = min(lo+w.size, w.n)
	for j, c := range w.srcs {
		switch win := &w.wins[j]; c.Typ {
		case schema.Int64:
			win.Ints = c.Ints[lo:w.pos]
		case schema.Float64:
			win.Floats = c.Floats[lo:w.pos]
		default:
			win.Strs = c.Strs[lo:w.pos]
		}
	}
	w.b.N, w.b.Sel = w.pos-lo, nil
	return &w.b
}

// liveRows returns b's live positions: b.Sel, or 0..N-1 for a dense batch,
// taken from the caller's identity buffer ident (grown as needed).
func liveRows(b *Batch, ident *[]int32) []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	for i := len(*ident); i < b.N; i++ {
		*ident = append(*ident, int32(i))
	}
	return (*ident)[:b.N]
}

// appendAt appends src's value at position i to dst (same type).
func appendAt(dst, src *storage.DenseColumn, i int) {
	switch src.Typ {
	case schema.Int64:
		dst.Ints = append(dst.Ints, src.Ints[i])
	case schema.Float64:
		dst.Floats = append(dst.Floats, src.Floats[i])
	default:
		dst.Strs = append(dst.Strs, src.Strs[i])
	}
}

// DrainView pulls op to exhaustion and compacts every batch into a single
// View (selection vectors applied). The join build and the adaptive
// store's covered reads use it.
func DrainView(op Operator) (*View, error) {
	v := NewView()
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return v, nil
		}
		v.n += b.Rows()
		for k, c := range b.Cols {
			dst := v.Cols[k]
			if dst == nil {
				dst = storage.NewDense(c.Typ, b.Rows())
				v.AddCol(k, dst)
			}
			dst.AppendSelected(c, b.Sel, b.N)
		}
	}
}
