// Package experiments regenerates every figure and table of the paper's
// evaluation. Each experiment returns a Report: one series per system
// curve, one point per x value (input size or query-sequence position),
// carrying the measured wall-clock time and the work counters behind it
// (see README "Running the paper experiments").
//
// The experiments run at laptop scale (default ~10^5–10^6 tuples,
// adjustable via Config.Scale). Tests assert each figure's shape on the
// deterministic work counters; the tables print wall-clock time.
package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nodb/internal/csvgen"
	"nodb/internal/metrics"
)

// Config parameterizes an experiment run.
type Config struct {
	// DataDir holds the generated CSV inputs (reused between runs).
	DataDir string
	// Scale multiplies the default row counts (1.0 = defaults; the
	// defaults keep the full suite under a few minutes on one core).
	Scale float64
	// Seed for workload randomness (query ranges).
	Seed int64
}

func (c Config) scale(n int) int {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n) * s)
	if v < 10 {
		v = 10
	}
	return v
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 20110109 // CIDR'11 opening day
	}
	return c.Seed
}

func (c Config) dataDir() (string, error) {
	dir := c.DataDir
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "nodb-experiments")
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// ensureTable generates (once) a CSV of rows×cols unique ints and returns
// its path.
func (c Config) ensureTable(name string, rows, cols int, seed int64) (string, error) {
	dir, err := c.dataDir()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%dx%d_s%d.csv", name, rows, cols, seed))
	if err := csvgen.EnsureFile(path, csvgen.Spec{Rows: rows, Cols: cols, Seed: seed}); err != nil {
		return "", err
	}
	return path, nil
}

// Point is one measurement.
type Point struct {
	// X is the point's position (input size, or query number).
	X float64
	// Label annotates the point (e.g. "1M tuples" or "Q7").
	Label string
	// Wall is the measured wall-clock time.
	Wall time.Duration
	// Work is the counter delta for the point.
	Work metrics.Snapshot
}

// Series is one system curve.
type Series struct {
	Name   string
	Points []Point
}

// Report is one regenerated figure or table.
type Report struct {
	ID     string
	Title  string
	XAxis  string
	Series []Series
	Notes  []string
}

// Format renders the report as an aligned table: one row per x value, one
// column per series, measured wall-clock time (the paper's y axis).
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)

	// Collect the x values in order of first appearance across series.
	type xkey struct {
		x     float64
		label string
	}
	var xs []xkey
	seen := map[float64]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, xkey{p.X, p.Label})
			}
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].x < xs[j].x })

	// Header.
	w := len(r.XAxis)
	for _, x := range xs {
		if len(x.label) > w {
			w = len(x.label)
		}
	}
	fmt.Fprintf(&sb, "%-*s", w+2, r.XAxis)
	colw := make([]int, len(r.Series))
	for i, s := range r.Series {
		colw[i] = len(s.Name)
		if colw[i] < 12 {
			colw[i] = 12
		}
		fmt.Fprintf(&sb, "  %*s", colw[i], s.Name)
	}
	sb.WriteByte('\n')

	lookup := func(s Series, x float64) (Point, bool) {
		for _, p := range s.Points {
			if p.X == x {
				return p, true
			}
		}
		return Point{}, false
	}
	for _, x := range xs {
		fmt.Fprintf(&sb, "%-*s", w+2, x.label)
		for i, s := range r.Series {
			if p, ok := lookup(s, x.x); ok {
				fmt.Fprintf(&sb, "  %*s", colw[i], fmtSec(p.Wall.Seconds()))
			} else {
				fmt.Fprintf(&sb, "  %*s", colw[i], "-")
			}
		}
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func fmtSec(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.2gms", s*1000)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1000)
	case s < 100:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.0fs", s)
	}
}

// SeriesByName returns the named series.
func (r *Report) SeriesByName(name string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// Total returns the sum of a series' wall-clock times.
func (s Series) Total() time.Duration {
	var t time.Duration
	for _, p := range s.Points {
		t += p.Wall
	}
	return t
}

// Runner is the registry entry for one experiment.
type Runner struct {
	ID          string
	Description string
	Run         func(Config) (*Report, error)
}

// All returns every experiment in a stable order.
func All() []Runner {
	return []Runner{
		{"fig1a", "Figure 1a: loading/initialization cost vs input size", Fig1a},
		{"fig1b", "Figure 1b: query processing cost vs input size", Fig1b},
		{"joins", "§2.2 in-text join experiment (Awk hash / sort+merge / cold DB / hot DB)", Joins},
		{"perl", "§2.2 in-text: Perl ~2x slower than Awk", Perl},
		{"fig3", "Figure 3: alternative loading operators, 20-query sequence", Fig3},
		{"fig4", "Figure 4: adaptive loading with file reorganization, 12-query sequence", Fig4},
		{"abl-pm", "Ablation: positional map on/off", AblationPositionalMap},
		{"abl-split", "Ablation: split files vs re-reading the raw file", AblationSplitFiles},
		{"abl-par", "Ablation: tokenizer worker count", AblationWorkers},
		{"abl-early", "Ablation: early row abandonment on/off", AblationEarlyAbandon},
		{"abl-budget", "Ablation: memory budget vs workload latency, cost-aware vs LRU eviction", AblationBudget},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// q2Range produces the paper's Q2-style predicate bounds: a `sel`-selective
// range on the first predicate column and a wide (90%) range on the
// second, over unique ints 0..rows-1.
func q2Range(rng *rand.Rand, rows int, sel float64) (lo1, hi1, lo2, hi2 int64) {
	width := int64(float64(rows) * sel)
	if width < 1 {
		width = 1
	}
	maxLo := int64(rows) - width
	if maxLo <= 0 {
		maxLo = 1
	}
	lo1 = rng.Int63n(maxLo)
	hi1 = lo1 + width
	lo2 = int64(float64(rows) * 0.05)
	hi2 = int64(float64(rows) * 0.95)
	return
}
