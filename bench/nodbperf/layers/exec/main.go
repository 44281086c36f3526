//go:build layerprobe

// Probe exec: the vectorized operators over a dense scan of prebuilt
// columns, each tree drained: filter, aggregate, group by, sort.
package main

import (
	"fmt"
	"math/rand/v2"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

const reps = 5

func main() {
	in := probe.Load()
	rows := float64(in.Rows)
	r := rand.New(rand.NewPCG(in.Seed, 10))
	// Column 0: uniform key, 1: measure, 2: 64 groups.
	cols := map[int]*storage.DenseColumn{}
	for c, card := range []int64{int64(in.Rows), int64(in.Rows), 64} {
		col := storage.NewDenseSized(schema.Int64, in.Rows)
		for i := range col.Ints {
			col.Ints[i] = r.Int64N(card)
		}
		cols[c] = col
	}
	src := exec.DenseSource{NumRows: int64(in.Rows), Columns: cols}
	key := func(c int) exec.ColKey { return exec.ColKey{Tab: 0, Col: c} }
	scan := func(c ...int) exec.Operator {
		op, err := exec.NewDenseScan(src, 0, c, 0)
		probe.Check(err)
		return op
	}
	drain := func(op exec.Operator, want int64) {
		var got int64
		for {
			b, err := op.Next()
			probe.Check(err)
			if b == nil {
				break
			}
			got += int64(b.Rows())
		}
		op.Close()
		if want >= 0 && got != want {
			probe.Fatal(fmt.Errorf("%s emitted %d rows, want %d", op.Name(), got, want))
		}
	}

	// 10 % selective range, as the conjunctive statements use.
	lo := int64(in.Rows / 2)
	conj := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Gt, Val: storage.IntValue(lo)},
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(lo + int64(in.Rows/10))},
	}}
	d := probe.Median("exec.filter", reps, func() {
		drain(exec.NewFilterOp(scan(0, 1), 0, conj), -1)
	})
	probe.Set("exec.filter_ns_per_row", float64(d.Nanoseconds())/rows, "ns")

	aggs := []exec.AggSpec{{Kind: sql.AggSum, Col: key(1)}, {Kind: sql.AggCount, Star: true}, {Kind: sql.AggMax, Col: key(0)}}
	d = probe.Median("exec.agg", reps, func() {
		drain(exec.NewAggOp(scan(0, 1), aggs, []int{0, 1, 2}), 1)
	})
	probe.Set("exec.agg_ns_per_row", float64(d.Nanoseconds())/rows, "ns")

	// SELECT c2, count(*), sum(c1) GROUP BY c2.
	slots := []exec.OutSlot{{Idx: 0}, {Agg: true, Idx: 0}, {Agg: true, Idx: 1}}
	gaggs := []exec.AggSpec{{Kind: sql.AggCount, Star: true}, {Kind: sql.AggSum, Col: key(1)}}
	d = probe.Median("exec.groupby", reps, func() {
		drain(exec.NewGroupByOp(scan(1, 2), []exec.ColKey{key(2)}, gaggs, slots, []exec.ColKey{key(2)}, 0), 64)
	})
	probe.Set("exec.groupby_ns_per_row", float64(d.Nanoseconds())/rows, "ns")

	// SELECT c0, c1 ORDER BY c0: the sort materializes every row.
	d = probe.Median("exec.sort", reps, func() {
		proj := exec.NewProjectOp(scan(0, 1), []exec.ColKey{key(0), key(1)})
		drain(exec.NewSortOp(proj, []exec.SortKey{{Index: 0}}, 2, 0), int64(in.Rows))
	})
	probe.Set("exec.sort_ns_per_row", float64(d.Nanoseconds())/rows, "ns")
	probe.Emit()
}
