//go:build layerprobe

// Probe core: the engine without HTTP, through the nodb package that
// fronts it — one cold-csv op split into its calls, the hot-serve mix
// against warm columns, and the cursor drain of the stream-export statement.
package main

import (
	"context"
	"fmt"
	"time"

	"nodb"
	"nodb/bench/nodbperf/layers/probe"
)

func main() {
	in := probe.Load()
	ctx := context.Background()

	var open, attach, query, closing []time.Duration
	for i := 0; i < 3; i++ {
		var e *nodb.DB
		open = append(open, probe.Span("core.cold.open", func() { e = nodb.Open(nodb.Options{}) }))
		attach = append(attach, probe.Span("core.cold.attach", func() {
			probe.Check(e.Attach("wide", nodb.TableSpec{Path: in.File}))
		}))
		query = append(query, probe.Span("core.cold.query", func() {
			_, err := e.QueryContext(ctx, in.Cold)
			probe.Check(err)
		}))
		closing = append(closing, probe.Span("core.cold.close", func() { probe.Check(e.Close()) }))
	}
	mid := func(d []time.Duration) float64 {
		lo, hi := min(d[0], d[1]), max(d[0], d[1])
		return min(max(lo, d[2]), hi).Seconds() * 1e3
	}
	probe.Set("core.cold_open_ms", mid(open), "ms")
	probe.Set("core.cold_attach_ms", mid(attach), "ms")
	probe.Set("core.cold_query_ms", mid(query), "ms")
	probe.Set("core.cold_close_ms", mid(closing), "ms")

	e := nodb.Open(nodb.Options{})
	defer e.Close()
	probe.Check(e.Attach("wide", nodb.TableSpec{Path: in.File}))
	for _, q := range in.Hot { // load every column the mix reads
		_, err := e.QueryContext(ctx, q)
		probe.Check(err)
	}
	d := probe.Median("core.query_hot", 3, func() {
		for _, q := range in.Hot {
			_, err := e.QueryContext(ctx, q)
			probe.Check(err)
		}
	})
	probe.Set("core.query_hot_us", d.Seconds()*1e6/float64(len(in.Hot)), "us")

	var n int64
	drain := func() {
		rows, err := e.QueryRows(ctx, in.Export)
		probe.Check(err)
		defer rows.Close()
		for n = 0; rows.Next(); n++ {
			_ = rows.Row()
		}
		probe.Check(rows.Err())
	}
	drain() // loads the export's columns
	d = probe.Median("core.rows", 5, drain)
	if n == 0 {
		probe.Fatal(fmt.Errorf("export statement returned no rows"))
	}
	probe.Set("core.rows_ns_per_row", float64(d.Nanoseconds())/float64(n), "ns")
	probe.Emit()
}
