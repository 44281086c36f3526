package exec

import (
	"strconv"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// This file defines the vectorized execution core: a pull-based pipeline
// of operators exchanging column-oriented Batches of ~1024 rows. Scans
// emit zero-copy windows into dense columns; filters refine a selection
// vector without moving values; only operators that must regroup rows
// (joins, sorts, group-bys) materialize.

// DefaultBatchSize is the target rows per Batch. Large enough to amortize
// per-batch overhead (virtual calls, slot checks, allocation) over ~1k
// rows, small enough that a batch's working set stays cache-resident.
const DefaultBatchSize = 1024

// OutTab is the pseudo table ordinal of select-list output columns: once a
// projection/aggregation shapes the result, columns are keyed OutKey(i)
// for select-list position i, and downstream operators (sort, limit) plus
// the cursor drain are source-agnostic.
const OutTab = -1

// OutKey returns the ColKey of select-list output position i.
func OutKey(i int) ColKey { return ColKey{Tab: OutTab, Col: i} }

// outKeys returns OutKey(0), ..., OutKey(n-1).
func outKeys(n int) []ColKey {
	keys := make([]ColKey, n)
	for i := range keys {
		keys[i] = OutKey(i)
	}
	return keys
}

// Batch is a column-oriented packet of rows flowing between operators.
// Vecs[i] is the vector of column Keys[i]; every vector holds N
// positions. Sel, when non-nil, lists the positions that are still alive
// (ascending). Filters record survivors in a Sel of their own instead of
// copying values. A producer emits the same Keys, in the same order, in
// every batch of its life.
//
// A batch belongs to the operator that produced it: it is valid until
// that producer's next Next or Close, which may reuse its shell, key and
// vector slices, selection vector and vectors for the following batch. A
// consumer never writes through a batch it received, and one that keeps
// rows past its child's next Next copies them (join builds, group-by
// keys, sorts, the cursor's Row and the result-cache tee all do).
type Batch struct {
	N    int
	Sel  []int32
	Keys []ColKey
	Vecs []*storage.DenseColumn
}

// Rows returns the number of live rows.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Col returns the column vector for key, or nil, by a scan of the keys.
func (b *Batch) Col(k ColKey) *storage.DenseColumn { return b.ColAt(k, new(int)) }

// ColAt is Col for a consumer of one producer's batches, which keeps
// *slot per key: it checks Keys[*slot] first, which costs one compare
// while the producer keeps its layout, and scans the keys (recording the
// new slot) only when that misses.
func (b *Batch) ColAt(k ColKey, slot *int) *storage.DenseColumn {
	if *slot < len(b.Keys) && b.Keys[*slot] == k {
		return b.Vecs[*slot]
	}
	for i, bk := range b.Keys {
		if bk == k {
			*slot = i
			return b.Vecs[i]
		}
	}
	return nil
}

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
	var b []byte
	var walk func(op Operator, indent string)
	walk = func(op Operator, indent string) {
		st := op.Stats()
		b = append(append(append(b, indent...), op.Name()...), "  (batches="...)
		b = append(strconv.AppendInt(b, st.Batches, 10), " rows="...)
		b = append(strconv.AppendInt(b, st.Rows, 10), ")\n"...)
		for _, c := range op.Children() {
			walk(c, indent+"  ")
		}
	}
	walk(root, "")
	return string(b)
}

// windows emits positions [0, n) of a fixed set of columns as zero-copy
// windows of size rows through one reused batch: the shell, its key and
// vector slices and the window headers are allocated once, and each batch
// re-points every window's one typed slice in place, so emitting copies
// no column header and costs no allocation.
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
	w := &windows{b: Batch{Keys: keys, Vecs: make([]*storage.DenseColumn, len(srcs))}, srcs: srcs, wins: make([]storage.DenseColumn, len(srcs)), n: n, size: size}
	for j := range srcs {
		w.b.Vecs[j] = &w.wins[j]
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
		c.SliceInto(&w.wins[j], lo, w.pos)
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

// appendAt appends src's value at position i to dst (same type; an int
// dst is 8 bytes wide).
func appendAt(dst, src *storage.DenseColumn, i int) {
	switch src.Typ {
	case schema.Int64:
		dst.Ints = append(dst.Ints, src.Int(i))
	case schema.Float64:
		dst.Floats = append(dst.Floats, src.Floats[i])
	default:
		dst.Strs = append(dst.Strs, src.Strs[i])
	}
}

// pull calls f on each batch of op in turn until the end of its stream.
func pull(op Operator, f func(*Batch) error) error {
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return err
		}
		if err := f(b); err != nil {
			return err
		}
	}
}

// DrainView pulls op to exhaustion and compacts every batch into a single
// View (selection vectors applied). The join build and the adaptive
// store's covered reads use it.
func DrainView(op Operator) (*View, error) {
	v := NewView()
	err := pull(op, func(b *Batch) error {
		v.n += b.Rows()
		for i, k := range b.Keys {
			dst := v.Cols[k]
			if dst == nil {
				dst = storage.NewDense(b.Vecs[i].Typ, b.Rows())
				v.AddCol(k, dst)
			}
			dst.AppendSelected(b.Vecs[i], b.Sel, b.N)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}
