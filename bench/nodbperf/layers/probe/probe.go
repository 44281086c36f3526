// Package probe is what the layer probes share: the input the harness
// hands them, a stopwatch that records spans, and the JSON they print.
// It imports nothing from nodb, so it builds whatever the layers look like.
package probe

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// Input is written by the harness for every probe of one traced run.
type Input struct {
	File     string   `json:"file"`      // the generated `wide` CSV
	Rows     int      `json:"rows"`      // rows in File
	Cols     int      `json:"cols"`      // columns per row
	TailFile string   `json:"tail_file"` // the 10 % append, as CSV text
	TailRows int      `json:"tail_rows"`
	Hot      []string `json:"hot"`    // statements of the hot-serve mix
	Cold     string   `json:"cold"`   // the cold-csv statement
	Export   string   `json:"export"` // the stream-export statement
	Seed     uint64   `json:"seed"`
}

// ColdCols are the attributes the cold-csv statement reads: a3, a7, a12.
var ColdCols = []int{2, 6, 11}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

var (
	t0      = time.Now()
	metrics = map[string]metric{}
	spans   []span
)

// Load reads the input named by -input.
func Load() Input {
	path := flag.String("input", "", "probe input written by nodbperf")
	flag.Parse()
	b, err := os.ReadFile(*path)
	if err != nil {
		Fatal(err)
	}
	var in Input
	if err := json.Unmarshal(b, &in); err != nil {
		Fatal(err)
	}
	return in
}

// Fatal ends the probe; the harness reports its metrics as unavailable.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "probe:", err)
	os.Exit(1)
}

// Check is Fatal when err is not nil.
func Check(err error) {
	if err != nil {
		Fatal(err)
	}
}

// Span runs fn once as a named span and returns how long it took.
func Span(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	spans = append(spans, span{name, start.Sub(t0).Nanoseconds(), end.Sub(t0).Nanoseconds()})
	return end.Sub(start)
}

// Median runs fn reps times, each as a span, and returns the median time.
func Median(name string, reps int, fn func()) time.Duration {
	return Rounds(name, reps, func(timed func(func())) { timed(fn) })
}

// Rounds is Median for a measurement that needs untimed work around it:
// each round does its preparation, calls timed once around the part to
// measure, and cleans up.
func Rounds(name string, reps int, round func(timed func(fn func()))) time.Duration {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		round(func(fn func()) { ds = append(ds, Span(name, fn)) })
	}
	if len(ds) != reps {
		Fatal(fmt.Errorf("%s: %d rounds timed %d spans", name, reps, len(ds)))
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[reps/2]
}

// Set records one metric.
func Set(name string, value float64, unit string) { metrics[name] = metric{value, unit} }

// Emit prints the probe's metrics and spans; call it last.
func Emit() {
	b, err := json.Marshal(map[string]any{"metrics": metrics, "spans": spans})
	Check(err)
	fmt.Println(string(b))
}

// MB is bytes in megabytes (10^6, as in MB/s).
func MB(bytes int64) float64 { return float64(bytes) / 1e6 }
