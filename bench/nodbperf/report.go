package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// e2eDef is one end-to-end metric with the share of the parent's median by
// which it may get worse before a change counts as a regression. The
// bounds are about three times the widest run-to-run spread seen on the
// 2-vCPU box this was built on, whose host adds minute-long slow spells
// (README, "Steadiness"). BENCHMARK.json repeats this table; the self-test
// keeps them equal.
type e2eDef struct {
	name, unit string
	lowerBest  bool
	bound      float64
}

var endToEnd = []e2eDef{
	{"setup_s", "s", true, 0.25},
	{"op_p50_ms", "ms", true, 0.20},
	{"op_tail_ms", "ms", true, 0.25},
	{"ops_per_s", "1/s", false, 0.20},
	{"ttfb_ms", "ms", true, 0.25},
	{"aux_bytes_per_raw_byte", "ratio", true, 0.02},
}

// report is what a set of runs writes and what compare reads.
type report struct {
	Runs      int                        `json:"runs_per_workload"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Info     *info                `json:"info"` // of the set's last run
	EndToEnd map[string]*e2eStats `json:"end_to_end"`
	PerLayer map[string]metric    `json:"per_layer,omitempty"` // of the traced run
}

type e2eStats struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (q3 − q1) / median over Values
	Values []float64 `json:"values"`
}

// setMain runs a set: `runs` fresh processes per workload, all with the
// same seed, and optionally one traced run. Returns the exit code.
func setMain(workload string, seed uint64, seconds float64, trace bool, runs int, out string) int {
	names := workloadNames()
	if workload != "" {
		if findWorkload(workload) == nil {
			fmt.Fprintf(os.Stderr, "nodbperf: unknown workload %q\n", workload)
			return 2
		}
		names = []string{workload}
	}
	rep := &report{Runs: runs, Workloads: map[string]*workloadReport{}}
	code := 0
	for _, name := range names {
		wr := &workloadReport{EndToEnd: map[string]*e2eStats{}}
		rep.Workloads[name] = wr
		for i := 0; i < runs; i++ {
			res, inf, err := spawnRun(name, seed, seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nodbperf: %s run %d: %v\n", name, i+1, err)
				return 1
			}
			wr.Info = inf
			if !res.Correct {
				code = 1
			}
			for _, def := range endToEnd {
				st := wr.EndToEnd[def.name]
				if st == nil {
					st = &e2eStats{Unit: def.unit}
					wr.EndToEnd[def.name] = st
				}
				st.Values = append(st.Values, res.Metrics[def.name].Value)
			}
		}
		for _, st := range wr.EndToEnd {
			st.Median, st.Spread = median(st.Values), spread(st.Values)
		}
		if trace {
			res, _, err := spawnRun(name, seed, seconds, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nodbperf: %s traced run: %v\n", name, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			wr.PerLayer = res.Metrics
		}
		printWorkload(os.Stderr, name, wr)
	}
	b, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(b))
	if out != "" {
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "nodbperf:", err)
			return 1
		}
	}
	return code
}

// spawnRun measures one run in a fresh process of this same binary and
// parses the two lines it ends with.
func spawnRun(workload string, seed uint64, seconds float64, trace bool) (*result, *info, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("run printed no result (%v)", err)
	}
	var res result
	var inf struct {
		Info info `json:"info"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("bad result line: %v", err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &inf); err != nil {
		return nil, nil, fmt.Errorf("bad info line: %v", err)
	}
	return &res, &inf.Info, nil
}

func printWorkload(w io.Writer, name string, wr *workloadReport) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tmetric\tmedian\tunit\tspread\tsamples/run\n", name)
	for _, def := range endToEnd {
		st := wr.EndToEnd[def.name]
		fmt.Fprintf(tw, "\t%s\t%.6g\t%s\t%.2f%%\t%d\n", def.name, st.Median, st.Unit, 100*st.Spread, wr.Info.Samples[def.name])
	}
	if v, ok := wr.PerLayer["trace_overhead_pct"]; ok {
		fmt.Fprintf(tw, "\ttrace_overhead_pct\t%.3g\t%%\t\t\n", v.Value)
	}
	tw.Flush()
}

// compareMain prints one row per (workload, end-to-end metric) of two
// reports and returns 1 when any metric of B is worse than A's by more
// than its bound.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nodbperf compare A.json B.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nodbperf compare: %s: %v\n", path, err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tdelta\tbound\tverdict")
	code := 0
	for _, name := range workloadNames() {
		a, b := reps[0].Workloads[name], reps[1].Workloads[name]
		if a == nil || b == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := a.EndToEnd[def.name], b.EndToEnd[def.name]
			if sa == nil || sb == nil {
				continue
			}
			delta := (sb.Median - sa.Median) / math.Abs(sa.Median)
			worse := delta
			if !def.lowerBest {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case math.Max(sa.Spread, sb.Spread) > def.bound:
				// The runs disagree among themselves by more than the
				// bound, so a difference of that size proves nothing.
				verdict = "unresolved"
			case worse > def.bound:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.0f%%\t%s\n",
				name, def.name, sa.Median, sb.Median, def.unit, 100*delta, 100*def.bound, verdict)
		}
	}
	tw.Flush()
	return code
}
