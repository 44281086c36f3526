package exec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// rowStore holds rows copied out of output-keyed batches, one typed vector
// per output column, for the operators that must keep rows past their
// child's next Next (sorts).
type rowStore struct {
	cols  []*storage.DenseColumn
	in    []*storage.DenseColumn // the current batch's output vectors
	slots []int                  // of OutKey(j) in the child's batches
	ident []int32
}

func newRowStore(arity int) rowStore {
	return rowStore{cols: make([]*storage.DenseColumn, arity), in: make([]*storage.DenseColumn, arity), slots: make([]int, arity)}
}

// pull drains child: it looks up each batch's output vectors (the first
// batch fixes the types) and passes take the batch's live rows.
func (s *rowStore) pull(child Operator, take func(rows []int32)) error {
	return pull(child, func(b *Batch) error {
		for j := range s.in {
			c := b.ColAt(OutKey(j), &s.slots[j])
			switch {
			case c == nil:
				return fmt.Errorf("exec: output column %d not in batch", j)
			case s.cols[j] == nil:
				s.cols[j] = storage.NewDense(c.Typ, 0)
			case c.Typ != s.cols[j].Typ:
				return fmt.Errorf("exec: output column %d changed type from %v to %v", j, s.cols[j].Typ, c.Typ)
			}
			s.in[j] = c
		}
		take(liveRows(b, &s.ident))
		return nil
	})
}

// appendRow copies row i of the current batch to the end of the store.
func (s *rowStore) appendRow(i int) {
	for j, c := range s.in {
		appendAt(s.cols[j], c, i)
	}
}

// setRow overwrites stored row at with row i of the current batch.
func (s *rowStore) setRow(at, i int) {
	for j, c := range s.in {
		switch dst := s.cols[j]; c.Typ {
		case schema.Int64:
			dst.Ints[at] = c.Int(i)
		case schema.Float64:
			dst.Floats[at] = c.Floats[i]
		default:
			dst.Strs[at] = c.Strs[i]
		}
	}
}

// compareRows orders row i of the vectors x against stored row j of y
// (rowStore.cols, same types) by keys, with Value.Compare's semantics per
// column (NaN ties with every float). x is y itself, or a batch's vectors
// (rowStore.in), whose ints may be narrower than the store's 8 bytes.
func compareRows(keys []SortKey, x []*storage.DenseColumn, i int, y []*storage.DenseColumn, j int) int {
	for _, k := range keys {
		var c int
		switch xc, yc := x[k.Index], y[k.Index]; xc.Typ {
		case schema.Int64:
			if xc.Ints != nil {
				c = cmp.Compare(xc.Ints[i], yc.Ints[j])
			} else {
				c = cmp.Compare(xc.Int(i), yc.Ints[j])
			}
		case schema.Float64:
			if a, b := xc.Floats[i], yc.Floats[j]; a < b {
				c = -1
			} else if a > b {
				c = 1
			}
		default:
			c = strings.Compare(xc.Strs[i], yc.Strs[j])
		}
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// gather returns the stored rows perm, in that order, as output windows
// of size rows.
func (s *rowStore) gather(perm []int32, size int) *windows {
	if len(perm) == 0 { // no batch may have come to type the columns
		return newWindows(nil, nil, 0, size)
	}
	out := make([]*storage.DenseColumn, len(s.cols))
	for j, c := range s.cols {
		out[j] = storage.NewDense(c.Typ, len(perm))
		for _, r := range perm {
			appendAt(out[j], c, int(r))
		}
	}
	return newWindows(outKeys(len(out)), out, len(perm), size)
}

// SortOp copies its (output-keyed) input into typed vectors, sorts an
// []int32 permutation over the key vectors with arrival order as the last
// key — the stable order — and emits the gathered rows.
type SortOp struct {
	opBase
	child Operator
	keys  []SortKey
	size  int
	store rowStore
	emit  *windows
}

func NewSortOp(child Operator, keys []SortKey, arity, batchSize int) *SortOp {
	return &SortOp{child: child, keys: keys, size: batchSize, store: newRowStore(arity)}
}

func (s *SortOp) Name() string         { return fmt.Sprintf("Sort(%v)", s.keys) }
func (s *SortOp) Children() []Operator { return []Operator{s.child} }
func (s *SortOp) Close()               { s.child.Close() }

func (s *SortOp) Next() (*Batch, error) {
	if s.emit == nil {
		var perm []int32
		err := s.store.pull(s.child, func(rows []int32) {
			for _, i := range rows {
				s.store.appendRow(int(i))
				perm = append(perm, int32(len(perm)))
			}
		})
		if err != nil {
			return nil, err
		}
		slices.SortFunc(perm, func(a, b int32) int {
			if c := compareRows(s.keys, s.store.cols, int(a), s.store.cols, int(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		s.emit = s.store.gather(perm, s.size)
	}
	return s.observe(s.emit.next()), nil
}

// TopKOp is ORDER BY … LIMIT k: a bounded max-heap of at most k copied
// rows, the worst on top (heapified once the first k are in), that a new
// row enters only by beating the top. Ties break by arrival order, so the
// rows and their order equal a stable sort cut at k. Once the heap is full
// a row is compared in its batch and copied only if it enters. Memory
// grows with the rows kept, not with k.
type TopKOp struct {
	opBase
	child   Operator
	keys    []SortKey
	k       int
	size    int
	store   rowStore
	seq     []int64 // arrival number per stored row
	heap    []int32 // stored rows kept, worst first
	arrived int64
	emit    *windows
}

// NewTopKOp keeps the first k rows of the order keys.
func NewTopKOp(child Operator, keys []SortKey, arity, k, batchSize int) *TopKOp {
	return &TopKOp{child: child, keys: keys, k: k, size: batchSize, store: newRowStore(arity)}
}

func (t *TopKOp) Name() string         { return fmt.Sprintf("TopK(%d %v)", t.k, t.keys) }
func (t *TopKOp) Children() []Operator { return []Operator{t.child} }
func (t *TopKOp) Close()               { t.child.Close() }

func (t *TopKOp) Next() (*Batch, error) {
	if t.emit == nil {
		if t.k <= 0 {
			t.child.Close()
			return nil, nil
		}
		err := t.store.pull(t.child, func(rows []int32) {
			for _, i := range rows {
				t.offer(int(i))
			}
		})
		if err != nil {
			return nil, err
		}
		slices.SortFunc(t.heap, t.compare)
		t.emit = t.store.gather(t.heap, t.size)
	}
	return t.observe(t.emit.next()), nil
}

// offer considers row i of the current batch.
func (t *TopKOp) offer(i int) {
	t.arrived++
	if len(t.heap) < t.k {
		t.store.appendRow(i)
		t.seq = append(t.seq, t.arrived)
		if t.heap = append(t.heap, int32(len(t.seq)-1)); len(t.heap) == t.k {
			for j := t.k/2 - 1; j >= 0; j-- {
				t.down(j)
			}
		}
		return
	}
	// Every stored row arrived earlier, so on equal keys the row loses.
	if compareRows(t.keys, t.store.in, i, t.store.cols, int(t.heap[0])) >= 0 {
		return
	}
	top := t.heap[0]
	t.store.setRow(int(top), i)
	t.seq[top] = t.arrived
	t.down(0)
}

// compare orders stored rows by the keys, then by arrival.
func (t *TopKOp) compare(a, b int32) int {
	if c := compareRows(t.keys, t.store.cols, int(a), t.store.cols, int(b)); c != 0 {
		return c
	}
	return cmp.Compare(t.seq[a], t.seq[b])
}

func (t *TopKOp) down(j int) {
	for {
		w, l, r := j, 2*j+1, 2*j+2
		if l < len(t.heap) && t.compare(t.heap[w], t.heap[l]) < 0 {
			w = l
		}
		if r < len(t.heap) && t.compare(t.heap[w], t.heap[r]) < 0 {
			w = r
		}
		if w == j {
			return
		}
		t.heap[j], t.heap[w] = t.heap[w], t.heap[j]
		j = w
	}
}
