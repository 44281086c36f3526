// Command nodbperf is the repository's benchmark: four workloads over one
// generated table, driven only through the nodb package and a real nodbd
// child over loopback /v1, with every answer checked against the
// generator's own oracle. See README.md.
//
//	nodbperf -workload W -seed N -seconds S -trace 0|1   one run; the last line of stdout is the result
//	nodbperf -seed N [-workload W] [-runs 3] [-trace 1] [-out report.json]   a set of fresh-process runs
//	nodbperf compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames(), ", ")+"; empty runs a set of every workload")
		seed     = flag.Uint64("seed", 1, "seed of everything random: table values, query parameters, mix order")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 records spans, runs the layer probes and reports the per-layer metrics")
		runs     = flag.Int("runs", 0, "fresh-process runs per workload; a set reports their medians (default 3 without -workload)")
		out      = flag.String("out", "", "write the set's report here as well as to stdout")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: nodbperf -workload W -seed N -seconds S -trace 0|1 | nodbperf compare A.json B.json")
		os.Exit(2)
	}
	if *workload == "" || *runs > 0 {
		os.Exit(setMain(*workload, *seed, *seconds, *trace == 1, max(*runs, 3), *out))
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, rows: fullRows, tail: fullTail}
	os.Exit(runMain(cfg))
}

// runMain is one run: the environment record on the line before last, the
// contract's result on the last. Exits non-zero when any op failed.
func runMain(cfg config) int {
	res, inf, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nodbperf:", err)
		return 1
	}
	b, _ := json.Marshal(map[string]*info{"info": inf})
	fmt.Println(string(b))
	b, _ = json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
