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
	cols []*storage.DenseColumn
	in   []*storage.DenseColumn // the current batch's output vectors
}

// resolve looks up b's output vectors; the first batch fixes the types.
func (s *rowStore) resolve(b *Batch, arity int) error {
	if s.in == nil {
		s.in = make([]*storage.DenseColumn, arity)
	}
	for j := range s.in {
		c := b.Cols[OutKey(j)]
		if c == nil {
			return fmt.Errorf("exec: output column %d not in batch", j)
		}
		s.in[j] = c
	}
	if s.cols == nil {
		s.cols = make([]*storage.DenseColumn, arity)
		for j, c := range s.in {
			s.cols[j] = storage.NewDense(c.Typ, 0)
		}
	}
	for j, c := range s.in {
		if c.Typ != s.cols[j].Typ {
			return fmt.Errorf("exec: output column %d changed type from %v to %v", j, s.cols[j].Typ, c.Typ)
		}
	}
	return nil
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

// compare orders stored rows a and b by keys, with Value.Compare's
// semantics per column (NaN ties with every float).
func (s *rowStore) compare(keys []SortKey, a, b int32) int {
	for _, k := range keys {
		var c int
		switch col := s.cols[k.Index]; col.Typ {
		case schema.Int64:
			c = cmp.Compare(col.Ints[a], col.Ints[b])
		case schema.Float64:
			if x, y := col.Floats[a], col.Floats[b]; x < y {
				c = -1
			} else if x > y {
				c = 1
			}
		default:
			c = strings.Compare(col.Strs[a], col.Strs[b])
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
	keys := make([]ColKey, len(s.cols))
	out := make([]*storage.DenseColumn, len(s.cols))
	for j, c := range s.cols {
		keys[j] = OutKey(j)
		out[j] = storage.NewDense(c.Typ, len(perm))
		for _, r := range perm {
			appendAt(out[j], c, int(r))
		}
	}
	return newWindows(keys, out, len(perm), size)
}

// SortOp copies its (output-keyed) input into typed vectors, sorts an
// []int32 permutation over the key vectors with arrival order as the last
// key — the stable order — and emits the gathered rows.
type SortOp struct {
	opBase
	child Operator
	keys  []SortKey
	arity int
	size  int
	store rowStore
	ident []int32
	emit  *windows
}

func NewSortOp(child Operator, keys []SortKey, arity, batchSize int) *SortOp {
	return &SortOp{child: child, keys: keys, arity: arity, size: batchSize}
}

func (s *SortOp) Name() string         { return fmt.Sprintf("Sort(%v)", s.keys) }
func (s *SortOp) Children() []Operator { return []Operator{s.child} }
func (s *SortOp) Close()               { s.child.Close() }

func (s *SortOp) Next() (*Batch, error) {
	if s.emit == nil {
		var perm []int32
		for {
			b, err := s.child.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if err := s.store.resolve(b, s.arity); err != nil {
				return nil, err
			}
			for _, i := range liveRows(b, &s.ident) {
				s.store.appendRow(int(i))
				perm = append(perm, int32(len(perm)))
			}
		}
		slices.SortFunc(perm, func(a, b int32) int {
			if c := s.store.compare(s.keys, a, b); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		s.emit = s.store.gather(perm, s.size)
	}
	return s.observe(s.emit.next()), nil
}

// TopKOp is ORDER BY … LIMIT k: a bounded max-heap of at most k copied
// rows, the worst on top, that a new row enters only by beating the top.
// Ties break by arrival order, so the rows and their order equal a stable
// sort cut at k. Memory grows with the rows kept, not with k.
type TopKOp struct {
	opBase
	child   Operator
	keys    []SortKey
	arity   int
	k       int
	size    int
	store   rowStore
	seq     []int64 // arrival number per stored row
	heap    []int32 // stored rows kept, worst first
	scratch int32   // stored row that receives each candidate once full
	arrived int64
	ident   []int32
	emit    *windows
}

// NewTopKOp keeps the first k rows of the order keys.
func NewTopKOp(child Operator, keys []SortKey, arity, k, batchSize int) *TopKOp {
	return &TopKOp{child: child, keys: keys, arity: arity, k: k, size: batchSize, scratch: -1}
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
		for {
			b, err := t.child.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if err := t.store.resolve(b, t.arity); err != nil {
				return nil, err
			}
			for _, i := range liveRows(b, &t.ident) {
				t.offer(int(i))
			}
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
		t.heap = append(t.heap, int32(len(t.seq)-1))
		t.up(len(t.heap) - 1)
		return
	}
	if t.scratch < 0 {
		t.store.appendRow(i)
		t.seq = append(t.seq, t.arrived)
		t.scratch = int32(len(t.seq) - 1)
	} else {
		t.store.setRow(int(t.scratch), i)
		t.seq[t.scratch] = t.arrived
	}
	if t.less(t.scratch, t.heap[0]) {
		t.heap[0], t.scratch = t.scratch, t.heap[0]
		t.down(0)
	}
}

// compare orders stored rows by the keys, then by arrival.
func (t *TopKOp) compare(a, b int32) int {
	if c := t.store.compare(t.keys, a, b); c != 0 {
		return c
	}
	return cmp.Compare(t.seq[a], t.seq[b])
}

func (t *TopKOp) less(a, b int32) bool { return t.compare(a, b) < 0 }

func (t *TopKOp) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !t.less(t.heap[p], t.heap[j]) {
			return
		}
		t.heap[p], t.heap[j] = t.heap[j], t.heap[p]
		j = p
	}
}

func (t *TopKOp) down(j int) {
	for {
		w, l, r := j, 2*j+1, 2*j+2
		if l < len(t.heap) && t.less(t.heap[w], t.heap[l]) {
			w = l
		}
		if r < len(t.heap) && t.less(t.heap[w], t.heap[r]) {
			w = r
		}
		if w == j {
			return
		}
		t.heap[j], t.heap[w] = t.heap[w], t.heap[j]
		j = w
	}
}
