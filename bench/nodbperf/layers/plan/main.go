//go:build layerprobe

// Probe plan: binding and rewriting the parsed hot-serve statements
// against a fully loaded table.
package main

import (
	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/plan"
	"nodb/internal/schema"
	"nodb/internal/sql"
)

// warm is a catalog whose one table has every column loaded.
type warm struct{ sch *schema.Schema }

func (w warm) TableSchema(string) (*schema.Schema, error) { return w.sch, nil }
func (w warm) DenseAll(string, []int) bool                { return true }

func main() {
	in := probe.Load()
	sch, err := schema.Detect(in.File, schema.DetectOptions{})
	probe.Check(err)
	stmts := make([]*sql.SelectStmt, len(in.Hot))
	for i, q := range in.Hot {
		stmts[i], err = sql.Parse(q)
		probe.Check(err)
	}
	d := probe.Median("plan.build", 5, func() {
		for _, st := range stmts {
			_, err := plan.Build(st, warm{sch}, plan.PolicyColumnLoads)
			probe.Check(err)
		}
	})
	probe.Set("plan.build_us", d.Seconds()*1e6/float64(len(stmts)), "us")
	probe.Emit()
}
