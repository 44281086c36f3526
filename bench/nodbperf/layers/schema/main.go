//go:build layerprobe

// Probe schema: what Attach pays to learn delimiter, header and types.
package main

import (
	"fmt"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/schema"
)

func main() {
	in := probe.Load()
	d := probe.Median("schema.detect", 9, func() {
		sch, err := schema.Detect(in.File, schema.DetectOptions{})
		probe.Check(err)
		if sch.NumCols() != in.Cols {
			probe.Fatal(fmt.Errorf("detected %d columns, want %d", sch.NumCols(), in.Cols))
		}
	})
	probe.Set("schema.detect_ms", d.Seconds()*1e3, "ms")
	probe.Emit()
}
