// Command nodbbench regenerates the paper's figures and tables.
//
// Usage:
//
//	nodbbench [-exp id[,id...]] [-scale f] [-data dir] [-seed n] [-list]
//
// With no -exp it runs every experiment. Each experiment prints a table
// with one row per x value (input size or query position) and one column
// per system curve, in measured wall-clock time with the page cache warm.
// See README "Running the paper experiments".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nodb/internal/cliutil"
	"nodb/internal/experiments"
)

func main() {
	var (
		expIDs = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		scale  = flag.Float64("scale", 1.0, "row-count scale factor")
		data   = flag.String("data", "", "directory for generated data files (default: $TMPDIR/nodb-experiments)")
		list   = flag.Bool("list", false, "list experiments and exit")
		seed   = flag.Int64("seed", 0, "workload seed (0 = fixed default)")
	)
	flag.Parse()
	cliutil.Exit(cliutil.CheckFlags(
		cliutil.NonNegativeFloat("nodbbench", "scale", *scale),
	))

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.ID, r.Description)
		}
		return
	}

	cfg := experiments.Config{DataDir: *data, Scale: *scale, Seed: *seed}

	var runners []experiments.Runner
	if *expIDs == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*expIDs, ",") {
			r, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "nodbbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		rep, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nodbbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		fmt.Printf("(%s ran in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
