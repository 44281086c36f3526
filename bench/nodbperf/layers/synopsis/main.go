//go:build layerprobe

// Probe synopsis: what collecting zone maps adds per parsed value, and
// what a pruning decision over every portion costs.
package main

import (
	"math/rand/v2"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/expr"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
)

func main() {
	in := probe.Load()
	cols := probe.ColdCols
	types := []schema.Type{schema.Int64, schema.Int64, schema.Int64}

	// One portion per MiB of a ~100 B/row file, as the scanner cuts them.
	const portionRows = 10000
	var layout []scan.PortionInfo
	for first := 0; first < in.Rows; first += portionRows {
		n := min(portionRows, in.Rows-first)
		layout = append(layout, scan.PortionInfo{
			Index: len(layout), Off: int64(first) * 100, End: int64(first+n) * 100,
			FirstRow: int64(first), Rows: int64(n),
		})
	}
	r := rand.New(rand.NewPCG(in.Seed, 8))
	vals := make([]int64, in.Rows)
	for i := range vals {
		vals[i] = r.Int64N(int64(in.Rows))
	}

	var syn *synopsis.Synopsis
	d := probe.Median("synopsis.observe", 5, func() {
		syn = synopsis.New()
		c := synopsis.NewCollector(syn, cols, types)
		c.AdoptLayout(layout)
		for _, p := range layout {
			acc := c.Begin(p)
			for i := p.FirstRow; i < p.FirstRow+p.Rows; i++ {
				v := storage.IntValue(vals[i])
				acc.Observe(0, v)
				acc.Observe(1, v)
				acc.Observe(2, v)
			}
			c.Commit(p, p.Rows)
		}
	})
	probe.Set("synopsis.observe_ns_per_value", float64(d.Nanoseconds())/float64(in.Rows*len(cols)), "ns")

	conj := expr.Conjunction{Preds: []expr.Pred{{Col: cols[0], Op: expr.Lt, Val: storage.IntValue(int64(in.Rows / 2))}}}
	const decisions = 1000
	d = probe.Median("synopsis.prune", 5, func() {
		for i := 0; i < decisions; i++ {
			pr := syn.Pruner(conj)
			for _, p := range layout {
				pr.Skip(p)
			}
		}
	})
	probe.Set("synopsis.prune_us", d.Seconds()*1e6/decisions, "us")
	probe.Emit()
}
