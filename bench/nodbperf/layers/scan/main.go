//go:build layerprobe

// Probe scan: the raw-scan stages, each including the ones before it —
// read + line split, + tokenize, + value parse — at Workers=1, so a
// stage's own time is its figure minus the previous stage's.
package main

import (
	"fmt"
	"runtime"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/scan"
)

const reps = 3

func main() {
	in := probe.Load()
	rows := float64(in.Rows)
	open := func(o scan.Options) *scan.Scanner {
		o.Workers = 1
		sc, err := scan.Open(in.File, o)
		probe.Check(err)
		return sc
	}
	size := open(scan.Options{}).Size()

	// The boundary-discovery and row-count pre-pass of a portioned scan.
	d := probe.Median("scan.split", reps, func() {
		sc := open(scan.Options{Portioned: true})
		_, err := sc.Portions()
		probe.Check(err)
		n, err := sc.NumRows()
		probe.Check(err)
		if n != int64(in.Rows) {
			probe.Fatal(fmt.Errorf("scanner counted %d rows, want %d", n, in.Rows))
		}
	})
	probe.Set("scan.split_mb_per_s", probe.MB(size)/d.Seconds(), "MB/s")

	noop := func(int64, []scan.FieldRef) error { return nil }
	var mallocs uint64
	tok := probe.Median("scan.tokenize", reps, func() {
		var before, after runtime.MemStats
		sc := open(scan.Options{})
		runtime.ReadMemStats(&before)
		probe.Check(sc.ScanColumns(probe.ColdCols, noop, nil))
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	probe.Set("scan.tokenize_mb_per_s", probe.MB(size)/tok.Seconds(), "MB/s")
	probe.Set("scan.tokenize_ns_per_row", float64(tok.Nanoseconds())/rows, "ns")
	probe.Set("scan.allocs_per_row", float64(mallocs)/rows, "count")

	all := make([]int, in.Cols)
	for i := range all {
		all[i] = i
	}
	d = probe.Median("scan.tokenize_all", reps, func() {
		probe.Check(open(scan.Options{}).ScanColumns(all, noop, nil))
	})
	probe.Set("scan.tokenize_all_ns_per_row", float64(d.Nanoseconds())/rows, "ns")

	var sink int64
	parse := probe.Median("scan.parse", reps, func() {
		probe.Check(open(scan.Options{}).ScanColumns(probe.ColdCols, func(_ int64, f []scan.FieldRef) error {
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
	probe.Set("scan.parse_ns_per_value", float64((parse-tok).Nanoseconds())/(rows*float64(len(probe.ColdCols))), "ns")
	probe.Emit()
}
