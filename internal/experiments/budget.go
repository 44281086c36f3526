package experiments

import (
	"fmt"
	"os"

	"nodb/internal/core"
	"nodb/internal/plan"
)

// AblationBudget reproduces the paper's life-time-management tradeoff
// (§5.1.3): adaptive state under a memory budget. A column-loads workload
// cycles over more attributes than any sub-100% budget can hold at once,
// so the governor must keep evicting; the smaller the budget, the more
// re-loading the workload pays. One series per eviction policy (the
// cost-aware default and the plain-LRU baseline), one point per budget as
// a fraction of the full working set — the x axis of a budget-vs-latency
// curve, the y axis the workload's summed wall-clock time.
//
// Why cost-aware can win: the budget covers columns *and* the positional
// map. LRU happily evicts the map (it is just another cold structure),
// and later re-loads pay full tokenization; cost-aware sees that the map
// is expensive to rebuild relative to its bytes and sacrifices
// cheap-to-reload columns instead.
func AblationBudget(c Config) (*Report, error) {
	rows := c.scale(200_000)
	const cols = 8
	path, err := c.ensureTable("budget", rows, cols, 7)
	if err != nil {
		return nil, err
	}
	// Measure the unbudgeted working set once: the denominator for the
	// budget fractions.
	fullBytes, _, err := budgetRun(path, 0, "cost")
	if err != nil {
		return nil, err
	}

	fractions := []struct {
		frac  float64
		label string
	}{
		{0, "unlimited"},
		{1.0, "100%"},
		{0.5, "50%"},
		{0.25, "25%"},
		{0.125, "12.5%"},
	}

	var series []Series
	for _, evict := range []string{"cost", "lru"} {
		s := Series{Name: "evict=" + evict}
		for fi, f := range fractions {
			budget := int64(0)
			if f.frac > 0 {
				budget = int64(float64(fullBytes) * f.frac)
			}
			_, p, err := budgetRun(path, budget, evict)
			if err != nil {
				return nil, err
			}
			p.X, p.Label = float64(fi), f.label
			s.Points = append(s.Points, p)
		}
		series = append(series, s)
	}
	return &Report{
		ID:     "abl-budget",
		Title:  fmt.Sprintf("Memory budget vs workload latency (%s x %d attrs, 3 passes)", sizeLabel(rows), cols),
		XAxis:  "budget",
		Series: series,
		Notes: []string{
			fmt.Sprintf("working set (unlimited budget) = %d bytes of adaptive state", fullBytes),
			"y = summed wall-clock time of the workload's queries; smaller budgets re-load more",
			"cost-aware eviction protects the positional map; LRU treats it like any cold structure",
		},
	}, nil
}

// budgetRun executes three passes over every attribute under one budget
// and eviction policy, returning the peak governed bytes and a point with
// the summed wall-clock time and work of its queries.
func budgetRun(path string, budget int64, evict string) (peakBytes int64, total Point, err error) {
	splitDir, err := os.MkdirTemp("", "nodb-splits-*")
	if err != nil {
		return 0, Point{}, err
	}
	defer os.RemoveAll(splitDir)
	eng := core.NewEngine(core.Options{
		Policy:              plan.PolicyColumnLoads,
		SplitDir:            splitDir,
		MemoryBudget:        budget,
		EvictionPolicy:      evict,
		DisableRevalidation: true,
	})
	defer eng.Close()
	if err := eng.Attach("R", core.TableSpec{Path: path}); err != nil {
		return 0, Point{}, err
	}

	const cols = 8
	for pass := 0; pass < 3; pass++ {
		for a := 1; a <= cols; a++ {
			res, err := eng.Query(fmt.Sprintf("select sum(a%d) from R", a))
			if err != nil {
				return 0, Point{}, fmt.Errorf("budget=%d evict=%s a%d: %w", budget, evict, a, err)
			}
			total.Wall += res.Stats.Wall
			total.Work = total.Work.Add(res.Stats.Work)
			if used := eng.Governor().Used(); used > peakBytes {
				peakBytes = used
			}
			if budget > 0 && eng.Governor().Used() > budget {
				return 0, Point{}, fmt.Errorf("budget=%d evict=%s: governed bytes %d exceed budget after query",
					budget, evict, eng.Governor().Used())
			}
		}
	}
	return peakBytes, total, nil
}
