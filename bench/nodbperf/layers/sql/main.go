//go:build layerprobe

// Probe sql: parsing and normalizing the statements of the hot-serve
// mix, which nodbd pays on every request because every SQL string differs.
package main

import (
	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/sql"
)

func main() {
	in := probe.Load()
	n := float64(len(in.Hot))
	d := probe.Median("sql.parse", 5, func() {
		for _, q := range in.Hot {
			_, err := sql.Parse(q)
			probe.Check(err)
		}
	})
	probe.Set("sql.parse_us", d.Seconds()*1e6/n, "us")
	var sink int
	d = probe.Median("sql.normalize", 5, func() {
		for _, q := range in.Hot {
			sink += len(sql.Normalize(q))
		}
	})
	probe.Set("sql.normalize_us", d.Seconds()*1e6/n, "us")
	probe.Emit()
}
