//go:build layerprobe

// Probe catalog: the file signature every query revalidates, and the
// tail extension that folds appended rows into what was already learned.
package main

import (
	"fmt"
	"os"

	"nodb"
	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/catalog"
)

func main() {
	in := probe.Load()
	d := probe.Median("catalog.sign", 9, func() {
		_, err := catalog.SignFile(in.File)
		probe.Check(err)
	})
	probe.Set("catalog.sign_ms", d.Seconds()*1e3, "ms")

	// Refresh after the 10 % append, over four loaded columns as in
	// adaptive-seq. The file is cut back after every repetition.
	tail, err := os.ReadFile(in.TailFile)
	probe.Check(err)
	st, err := os.Stat(in.File)
	probe.Check(err)
	d = probe.Rounds("catalog.extend", 3, func(timed func(func())) {
		db := nodb.Open(nodb.Options{Workers: 1})
		probe.Check(db.Attach("wide", nodb.TableSpec{Path: in.File}))
		_, err := db.Query("SELECT sum(a1), sum(a2), sum(a3), sum(a4) FROM wide")
		probe.Check(err)
		f, err := os.OpenFile(in.File, os.O_WRONLY|os.O_APPEND, 0)
		probe.Check(err)
		_, err = f.Write(tail)
		probe.Check(err)
		probe.Check(f.Close())
		timed(func() {
			res, err := db.Refresh("wide")
			probe.Check(err)
			if !res.Grown || res.RowsAdded != int64(in.TailRows) {
				probe.Fatal(fmt.Errorf("Refresh = %+v, want %d rows grown", res, in.TailRows))
			}
		})
		probe.Check(db.Close())
		probe.Check(os.Truncate(in.File, st.Size()))
	})
	probe.Set("catalog.extend_mb_per_s", probe.MB(int64(len(tail)))/d.Seconds(), "MB/s")
	probe.Emit()
}
