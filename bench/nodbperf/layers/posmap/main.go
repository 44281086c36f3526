//go:build layerprobe

// Probe posmap: recording and looking up attribute positions, and what
// the map holds per row after a cold-csv-shaped load (three columns).
package main

import (
	"errors"
	"math/rand/v2"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/posmap"
)

func main() {
	in := probe.Load()
	const run = 4096 // scan portions record one run per chunk
	offs := make([]int64, run)
	var m *posmap.Map
	d := probe.Median("posmap.record", 5, func() {
		m = posmap.New(0, nil)
		for _, col := range probe.ColdCols {
			for row := 0; row < in.Rows; row += run {
				n := min(run, in.Rows-row)
				for i := 0; i < n; i++ {
					offs[i] = int64(row+i)*110 + int64(col)*7
				}
				m.RecordRun(col, int64(row), offs[:n])
			}
		}
	})
	entries := float64(in.Rows * len(probe.ColdCols))
	probe.Set("posmap.record_ns_per_entry", float64(d.Nanoseconds())/entries, "ns")
	probe.Set("posmap.bytes_per_row", float64(m.MemSize())/float64(in.Rows), "B")

	const lookups = 1 << 20
	r := rand.New(rand.NewPCG(in.Seed, 7))
	rowIDs := make([]int64, lookups)
	for i := range rowIDs {
		rowIDs[i] = r.Int64N(int64(in.Rows))
	}
	d = probe.Median("posmap.lookup", 5, func() {
		for _, row := range rowIDs {
			if _, ok := m.Lookup(probe.ColdCols[1], row); !ok {
				probe.Fatal(errors.New("recorded position not found"))
			}
		}
	})
	probe.Set("posmap.lookup_ns", float64(d.Nanoseconds())/lookups, "ns")
	probe.Emit()
}
