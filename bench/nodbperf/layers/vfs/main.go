//go:build layerprobe

// Probe vfs: how fast the file can be read at all, the floor under every
// raw scan.
package main

import (
	"io"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/vfs"
)

func main() {
	in := probe.Load()
	fsys := vfs.Default(nil)
	buf := make([]byte, 1<<20) // the scanner's default chunk size
	var size int64
	d := probe.Median("vfs.read", 7, func() {
		f, err := fsys.Open(in.File)
		probe.Check(err)
		defer f.Close()
		size = 0
		for {
			n, err := f.ReadAt(buf, size)
			size += int64(n)
			if err == io.EOF {
				return
			}
			probe.Check(err)
		}
	})
	probe.Set("vfs.read_mb_per_s", probe.MB(size)/d.Seconds(), "MB/s")
	probe.Emit()
}
