//go:build layerprobe

// Probe govern: one Enforce pass over 64 registered structures that fit
// the budget, which every query pays on completion.
package main

import (
	"fmt"

	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/govern"
)

func main() {
	probe.Load()
	const handles, calls = 64, 10000
	g := govern.New(1<<30, nil, nil)
	for i := 0; i < handles; i++ {
		h := g.Register(govern.KindColumn, fmt.Sprintf("col%d", i), func() bool { return false })
		h.SetBytes(1 << 20)
		h.SetCost(1)
	}
	d := probe.Median("govern.enforce", 9, func() {
		for i := 0; i < calls; i++ {
			if ev := g.Enforce(); len(ev) != 0 {
				probe.Fatal(fmt.Errorf("Enforce evicted %d structures under budget", len(ev)))
			}
		}
	})
	probe.Set("govern.enforce_us", d.Seconds()*1e6/calls, "us")
	probe.Emit()
}
