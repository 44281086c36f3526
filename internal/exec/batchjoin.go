package exec

import (
	"fmt"
)

// HashJoinOp joins two operator subtrees on lkey = rkey. Both sides are
// materialized and handed to HashJoin, which builds on the smaller input
// and emits in probe order, matches in build-insertion order. The joined
// view is re-emitted as zero-copy windows carrying every column of both
// inputs.
type HashJoinOp struct {
	opBase
	left, right Operator
	lkey, rkey  ColKey
	size        int
	joined      *ViewScan
	done        bool
}

func NewHashJoinOp(left, right Operator, lkey, rkey ColKey, batchSize int) *HashJoinOp {
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
	if j.joined == nil {
		lv, err := DrainView(j.left)
		if err != nil {
			return nil, err
		}
		rv, err := DrainView(j.right)
		if err != nil {
			return nil, err
		}
		// A side whose stream produced no batches has no columns at all
		// (filters absorb empty batches); the join output is empty.
		if len(lv.Cols) == 0 || len(rv.Cols) == 0 {
			j.done = true
			return nil, nil
		}
		out, err := HashJoin(lv, rv, j.lkey, j.rkey)
		if err != nil {
			return nil, err
		}
		j.joined = NewViewScan(out, j.size)
	}
	b, err := j.joined.Next()
	if err != nil || b == nil {
		j.done = b == nil && err == nil
		return nil, err
	}
	return j.observe(b), nil
}
