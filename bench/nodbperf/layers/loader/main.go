//go:build layerprobe

// Probe loader: a column load on a fresh table, and what it costs beyond
// tokenizing and parsing — positional map, synopsis and dense-column
// maintenance. That is the price cold-csv pays so that adaptive-seq's
// later queries are cheap.
package main

import (
	"context"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/catalog"
	"nodb/internal/loader"
	"nodb/internal/scan"
)

const reps = 3

func main() {
	in := probe.Load()
	st, err := scan.Open(in.File, scan.Options{Workers: 1})
	probe.Check(err)
	size := st.Size()

	load := probe.Median("loader.column_load", reps, func() {
		cat := catalog.New(catalog.Options{})
		t, err := cat.Link("wide", in.File)
		probe.Check(err)
		ld := &loader.Loader{Workers: 1, RecordPositions: true, UsePositions: true, UseSynopsis: true}
		probe.Check(ld.ColumnLoadContext(context.Background(), t, probe.ColdCols))
	})
	probe.Set("loader.column_load_mb_per_s", probe.MB(size)/load.Seconds(), "MB/s")

	var sink int64
	parse := probe.Median("scan.tokenize_parse", reps, func() {
		sc, err := scan.Open(in.File, scan.Options{Workers: 1})
		probe.Check(err)
		probe.Check(sc.ScanColumns(probe.ColdCols, func(_ int64, f []scan.FieldRef) error {
			for i := range f {
				v, err := scan.ParseInt64(f[i].Bytes)
				if err != nil {
					return err
				}
				sink += v
			}
			return nil
		}, nil))
	})
	probe.Set("loader.maintenance_ns_per_row", float64((load-parse).Nanoseconds())/float64(in.Rows), "ns")
	probe.Emit()
}
