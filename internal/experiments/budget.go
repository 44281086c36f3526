package experiments

import (
	"fmt"
	"os"
	"time"

	"nodb/internal/core"
	"nodb/internal/metrics"
	"nodb/internal/plan"
)

// AblationBudget reproduces the paper's life-time-management tradeoff
// (§5.1.3): adaptive state under a memory budget. A column-loads workload
// cycles over more attributes than any sub-100% budget can hold at once,
// so the governor must keep evicting; the smaller the budget, the more
// re-loading the workload pays. One series per eviction policy (the
// cost-aware default and the plain-LRU baseline), one point per budget as
// a fraction of the full working set — the x axis of a budget-vs-latency
// curve, the y axis the workload's total modeled seconds.
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
	model := fig34Model(c)

	// Measure the unbudgeted working set once: the denominator for the
	// budget fractions.
	fullBytes, _, _, err := budgetRun(c, path, 0, "cost", model)
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
			_, sec, wall, err := budgetRun(c, path, budget, evict, model)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{
				X: float64(fi), Label: f.label, ModelSec: sec, Wall: wall,
			})
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
			"y = total modeled seconds for the whole workload; smaller budgets re-load more",
			"cost-aware eviction protects the positional map; LRU treats it like any cold structure",
		},
	}, nil
}

// budgetRun executes three passes over every attribute under one budget
// and eviction policy, returning the peak governed bytes, the total
// modeled seconds and the summed wall-clock time of its queries.
func budgetRun(c Config, path string, budget int64, evict string, model metrics.CostModel) (peakBytes int64, totalSec float64, wall time.Duration, err error) {
	splitDir, err := os.MkdirTemp("", "nodb-splits-*")
	if err != nil {
		return 0, 0, 0, err
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
		return 0, 0, 0, err
	}

	const cols = 8
	for pass := 0; pass < 3; pass++ {
		for a := 1; a <= cols; a++ {
			res, err := eng.Query(fmt.Sprintf("select sum(a%d) from R", a))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("budget=%d evict=%s a%d: %w", budget, evict, a, err)
			}
			totalSec += model.Seconds(res.Stats.Work)
			wall += res.Stats.Wall
			if used := eng.Governor().Used(); used > peakBytes {
				peakBytes = used
			}
			if budget > 0 && eng.Governor().Used() > budget {
				return 0, 0, 0, fmt.Errorf("budget=%d evict=%s: governed bytes %d exceed budget after query",
					budget, evict, eng.Governor().Used())
			}
		}
	}
	return peakBytes, totalSec, wall, nil
}
