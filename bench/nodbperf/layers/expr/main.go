//go:build layerprobe

// Probe expr: the batch filter kernel on a 1 %-selective range, the most
// common predicate of the hot-serve mix.
package main

import (
	"math/rand/v2"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

func main() {
	in := probe.Load()
	const batch = 1024
	r := rand.New(rand.NewPCG(in.Seed, 9))
	col := storage.NewDenseSized(schema.Int64, in.Rows)
	for i := range col.Ints {
		col.Ints[i] = r.Int64N(int64(in.Rows))
	}
	lo := int64(in.Rows / 2)
	conj := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Ge, Val: storage.IntValue(lo)},
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(lo + int64(in.Rows/100))},
	}}
	sel := make([]int32, batch)
	var kept int
	d := probe.Median("expr.filter", 9, func() {
		for off := 0; off+batch <= in.Rows; off += batch {
			win := &storage.DenseColumn{Typ: schema.Int64, Ints: col.Ints[off : off+batch]}
			for i := range sel {
				sel[i] = int32(i)
			}
			kept += len(conj.FilterBatch(func(int) *storage.DenseColumn { return win }, sel))
		}
	})
	probe.Set("expr.filter_ns_per_row", float64(d.Nanoseconds())/float64(in.Rows/batch*batch), "ns")
	probe.Emit()
}
