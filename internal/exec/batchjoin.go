package exec

import (
	"fmt"
	"math"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// HashJoinOp is an inner equi-join on lkey = rkey. It drains its right
// input into a typed hash index, then streams its left input: each probe
// batch's matches go out, in probe order and within a probe row in build
// order, through one output batch whose vectors the operator owns and
// refills on every Next. The left input is never materialized, so a LIMIT
// above the join stops pulling it. In a left-deep plan the left input is
// the FROM table (or the join so far) and the right the newly joined
// table.
//
// Numeric keys compare by value: int with int through their int64, any
// pairing with a float through AsFloat with -0 folded into +0 and every
// NaN alike. String keys join only string keys.
type HashJoinOp struct {
	opBase
	left, right Operator
	lkey, rkey  ColKey
	size        int

	build *View     // the drained right input
	index joinIndex // built on the first probe batch, once both key types are known
	in    *Batch    // the left batch being probed
	ident []int32
	pIdx  []int32 // matched positions in `in`
	bIdx  []int32 // matched rows of build, aligned with pIdx
	at    int     // next pair of pIdx/bIdx to emit
	out   Batch
	vecs  map[ColKey]*storage.DenseColumn // the owned output vectors
	done  bool
}

func NewHashJoinOp(left, right Operator, lkey, rkey ColKey, batchSize int) *HashJoinOp {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &HashJoinOp{left: left, right: right, lkey: lkey, rkey: rkey, size: batchSize}
}

func (j *HashJoinOp) Name() string {
	return fmt.Sprintf("HashJoin(%v=%v)", j.lkey, j.rkey)
}
func (j *HashJoinOp) Children() []Operator { return []Operator{j.left, j.right} }
func (j *HashJoinOp) Close()               { j.left.Close(); j.right.Close() }

func (j *HashJoinOp) Next() (*Batch, error) {
	if j.done {
		return nil, nil
	}
	if j.build == nil {
		v, err := DrainView(j.right)
		if err != nil {
			return nil, err
		}
		if v.Len() == 0 {
			// Nothing to match: the left input need not be read at all.
			j.done = true
			return nil, nil
		}
		j.build = v
	}
	for j.at >= len(j.pIdx) {
		b, err := j.left.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.done = true
			return nil, nil
		}
		if err := j.probe(b); err != nil {
			return nil, err
		}
	}
	lo := j.at
	j.at = min(lo+j.size, len(j.pIdx))
	for k, c := range j.in.Cols {
		gather(j.vecs[k], c, j.pIdx[lo:j.at])
	}
	for k, c := range j.build.Cols {
		gather(j.vecs[k], c, j.bIdx[lo:j.at])
	}
	j.out.N = j.at - lo
	return j.observe(&j.out), nil
}

// probe matches every live row of b against the index, recording the
// pairs for Next to emit.
func (j *HashJoinOp) probe(b *Batch) error {
	kc := b.Cols[j.lkey]
	if kc == nil {
		return fmt.Errorf("exec: join key %v not in the left input", j.lkey)
	}
	if j.index == nil {
		if err := j.open(b, kc); err != nil {
			return err
		}
	}
	j.in, j.at = b, 0
	j.pIdx, j.bIdx = j.index.probe(kc, liveRows(b, &j.ident), j.pIdx[:0], j.bIdx[:0])
	return nil
}

// open builds the index for the key types of both sides and the output
// batch for the columns of both sides.
func (j *HashJoinOp) open(b *Batch, kc *storage.DenseColumn) error {
	bc := j.build.Col(j.rkey)
	if bc == nil {
		return fmt.Errorf("exec: join key %v not in the right input", j.rkey)
	}
	switch lt, rt := kc.Typ, bc.Typ; {
	case lt == schema.Int64 && rt == schema.Int64:
		j.index = newHashIndex(bc, func(c *storage.DenseColumn, i int32) int64 { return c.Ints[i] })
	case lt == schema.String && rt == schema.String:
		j.index = newHashIndex(bc, func(c *storage.DenseColumn, i int32) string { return c.Strs[i] })
	case lt == schema.String || rt == schema.String:
		return fmt.Errorf("exec: join key type mismatch %v vs %v", lt, rt)
	default:
		j.index = newHashIndex(bc, floatKey)
	}
	j.vecs = newColMap(len(b.Cols) + len(j.build.Cols))
	for k, c := range b.Cols {
		j.vecs[k] = storage.NewDense(c.Typ, j.size)
	}
	for k, c := range j.build.Cols {
		j.vecs[k] = storage.NewDense(c.Typ, j.size)
	}
	j.out.Cols = j.vecs
	return nil
}

// floatKey is a numeric join key as float64 bits, with -0 folded into +0
// and every NaN alike, so equal keys are equal bits.
func floatKey(c *storage.DenseColumn, i int32) uint64 {
	var f float64
	if c.Typ == schema.Int64 {
		f = float64(c.Ints[i])
	} else {
		f = c.Floats[i]
	}
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// joinIndex finds the build rows matching probe keys.
type joinIndex interface {
	// probe appends one (probe position, build row) pair per match of the
	// rows sel of key: in sel order and, for each, in build order.
	probe(key *storage.DenseColumn, sel, p, b []int32) ([]int32, []int32)
}

// hashIndex maps a key to its first build row; next chains the build rows
// sharing a key, in build order (-1 ends a chain).
type hashIndex[K comparable] struct {
	head map[K]int32
	next []int32
	key  func(*storage.DenseColumn, int32) K
}

func newHashIndex[K comparable](c *storage.DenseColumn, key func(*storage.DenseColumn, int32) K) *hashIndex[K] {
	n := c.Len()
	ix := &hashIndex[K]{head: make(map[K]int32, n), next: make([]int32, n), key: key}
	// Walking backwards leaves every chain in build order.
	for i := int32(n - 1); i >= 0; i-- {
		k := key(c, i)
		ix.next[i] = -1
		if h, ok := ix.head[k]; ok {
			ix.next[i] = h
		}
		ix.head[k] = i
	}
	return ix
}

func (ix *hashIndex[K]) probe(key *storage.DenseColumn, sel, p, b []int32) ([]int32, []int32) {
	for _, i := range sel {
		h, ok := ix.head[ix.key(key, i)]
		if !ok {
			continue
		}
		for ; h >= 0; h = ix.next[h] {
			p = append(p, i)
			b = append(b, h)
		}
	}
	return p, b
}

// gather overwrites dst with src's values at idx (same type).
func gather(dst, src *storage.DenseColumn, idx []int32) {
	dst.Ints, dst.Floats, dst.Strs = dst.Ints[:0], dst.Floats[:0], dst.Strs[:0]
	dst.AppendSelected(src, idx, 0)
}
