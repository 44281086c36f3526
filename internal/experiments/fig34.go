package experiments

import (
	"fmt"
	"math/rand"
	"os"

	"nodb/internal/baseline"
	"nodb/internal/core"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/plan"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// q2Query renders a Q2 query over attribute pair (c1, c2) with the given
// bounds, plus the equivalent bound conjunction for baseline scans.
func q2Query(c1, c2 int, lo1, hi1, lo2, hi2 int64) (string, expr.Conjunction, []int, []exec.AggSpec) {
	q := fmt.Sprintf(
		"select sum(a%d),avg(a%d) from R where a%d>%d and a%d<%d and a%d>%d and a%d<%d",
		c1+1, c2+1, c1+1, lo1, c1+1, hi1, c2+1, lo2, c2+1, hi2)
	conj := expr.Conjunction{Preds: []expr.Pred{
		{Col: c1, Op: expr.Gt, Val: storage.IntValue(lo1)},
		{Col: c1, Op: expr.Lt, Val: storage.IntValue(hi1)},
		{Col: c2, Op: expr.Gt, Val: storage.IntValue(lo2)},
		{Col: c2, Op: expr.Lt, Val: storage.IntValue(hi2)},
	}}
	aggs := []exec.AggSpec{
		{Kind: sql.AggSum, Col: exec.ColKey{Tab: 0, Col: c1}},
		{Kind: sql.AggAvg, Col: exec.ColKey{Tab: 0, Col: c2}},
	}
	return q, conj, []int{c1, c2}, aggs
}

// fig3Workload is the Figure 3 query sequence: 10 random Q2 queries over
// (a1, a2), then 10 over (a3, a4); each 10% selective.
func fig3Workload(c Config, rows int) []struct {
	query string
	conj  expr.Conjunction
	cols  []int
	aggs  []exec.AggSpec
} {
	rng := rand.New(rand.NewSource(c.seed()))
	out := make([]struct {
		query string
		conj  expr.Conjunction
		cols  []int
		aggs  []exec.AggSpec
	}, 0, 20)
	for i := 0; i < 20; i++ {
		c1, c2 := 0, 1
		if i >= 10 {
			c1, c2 = 2, 3
		}
		lo1, hi1, lo2, hi2 := q2Range(rng, rows, 0.1)
		q, conj, cols, aggs := q2Query(c1, c2, lo1, hi1, lo2, hi2)
		out = append(out, struct {
			query string
			conj  expr.Conjunction
			cols  []int
			aggs  []exec.AggSpec
		}{q, conj, cols, aggs})
	}
	return out
}

// engineSeries runs the query sequence against a fresh engine under the
// given policy, recording one point per query.
func engineSeries(name string, pol plan.Policy, path string, queries []string) (Series, error) {
	splitDir, err := os.MkdirTemp("", "nodb-splits-*")
	if err != nil {
		return Series{}, err
	}
	defer os.RemoveAll(splitDir)
	eng := core.NewEngine(core.Options{
		Policy:              pol,
		SplitDir:            splitDir,
		DisableRevalidation: true,
	})
	defer eng.Close()
	if err := eng.Attach("R", core.TableSpec{Path: path}); err != nil {
		return Series{}, err
	}
	s := Series{Name: name}
	for qi, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			return Series{}, fmt.Errorf("%s q%d: %w", name, qi+1, err)
		}
		s.Points = append(s.Points, Point{
			X: float64(qi + 1), Label: fmt.Sprintf("Q%d", qi+1), Wall: res.Stats.Wall, Work: res.Stats.Work,
		})
	}
	return s, nil
}

// Fig3 reproduces Figure 3: a 20-query sequence over a 4-attribute table;
// queries 1–10 touch the first two attributes, 11–20 the last two.
func Fig3(c Config) (*Report, error) {
	rows := c.scale(500_000)
	path, err := c.ensureTable("fig3", rows, 4, 3)
	if err != nil {
		return nil, err
	}
	wl := fig3Workload(c, rows)
	queries := make([]string, len(wl))
	for i, w := range wl {
		queries[i] = w.query
	}

	monetdb, err := engineSeries("MonetDB", plan.PolicyFullLoad, path, queries)
	if err != nil {
		return nil, err
	}
	colLoads, err := engineSeries("Column Loads", plan.PolicyColumnLoads, path, queries)
	if err != nil {
		return nil, err
	}
	partialV1, err := engineSeries("Partial Loads V1", plan.PolicyPartialV1, path, queries)
	if err != nil {
		return nil, err
	}

	// MySQL CSV engine: stateless full-row external scans.
	mysql := Series{Name: "MySQL CSV"}
	bt := baseline.Table{Path: path, NumCols: 4}
	for qi, w := range wl {
		var counters metrics.Counters
		timer := metrics.StartTimer()
		v, err := baseline.MySQLCSVScan(bt, w.cols, w.conj, &counters, 0)
		if err != nil {
			return nil, err
		}
		if _, err := aggregate(v, w.aggs); err != nil {
			return nil, err
		}
		work := counters.Snapshot()
		mysql.Points = append(mysql.Points, Point{
			X: float64(qi + 1), Label: fmt.Sprintf("Q%d", qi+1), Wall: timer.Elapsed(), Work: work,
		})
	}

	return &Report{
		ID:     "fig3",
		Title:  fmt.Sprintf("Alternative loading operators (%s x 4 attrs; Q1-10 on a1,a2; Q11-20 on a3,a4)", sizeLabel(rows)),
		XAxis:  "query",
		Series: []Series{monetdb, mysql, colLoads, partialV1},
		Notes: []string{
			"Expected shape (paper): MonetDB pays everything at Q1 then is flat-fast; MySQL CSV is constant; Column Loads pays ~half of MonetDB at Q1, is fast until the Q11 column shift; Partial Loads V1 stays low but re-reads the file every query.",
		},
	}, nil
}

// Fig4 reproduces Figure 4: a 12-attribute table; 6 distinct Q2 queries,
// each run twice, walking attribute pairs from the END of the row to the
// front (the paper makes Q1 use the last two attributes to show the worst
// split-file start-up).
func Fig4(c Config) (*Report, error) {
	rows := c.scale(300_000)
	const cols = 12
	path, err := c.ensureTable("fig4", rows, cols, 4)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(c.seed() + 4))
	var queries []string
	for i := 0; i < 6; i++ {
		c1 := cols - 2 - 2*i // 10, 8, 6, 4, 2, 0
		c2 := c1 + 1
		lo1, hi1, lo2, hi2 := q2Range(rng, rows, 0.1)
		q, _, _, _ := q2Query(c1, c2, lo1, hi1, lo2, hi2)
		queries = append(queries, q, q) // each query runs twice
	}

	monetdb, err := engineSeries("MonetDB", plan.PolicyFullLoad, path, queries)
	if err != nil {
		return nil, err
	}
	colLoads, err := engineSeries("Column Loads", plan.PolicyColumnLoads, path, queries)
	if err != nil {
		return nil, err
	}
	partialV2, err := engineSeries("Partial Loads V2", plan.PolicyPartialV2, path, queries)
	if err != nil {
		return nil, err
	}
	splits, err := engineSeries("Split Files", plan.PolicySplitFiles, path, queries)
	if err != nil {
		return nil, err
	}

	notes := []string{
		"Each distinct query runs twice (odd = first run, even = rerun); Q1 uses the LAST two attributes.",
		"Expected shape (paper): MonetDB's Q1 dwarfs everything; Split Files' Q1 is several times cheaper and its later misses are cheaper than Partial V2 and Column Loads because it reads only per-column files.",
		"The paper's table outgrows RAM (10^9 tuples); this one fits, so no load spills.",
	}
	// Quantify the split-file advantage on later misses (paper: ~5x vs
	// Column Loads, ~2x vs Partial V2 at Q3+).
	cl := colLoads.Points[4] // Q5: a fresh pair, post-split
	sf := splits.Points[4]
	pv := partialV2.Points[4]
	fileBytes := func(p Point) int64 { return p.Work.RawBytesRead + p.Work.SplitBytesRead }
	notes = append(notes, fmt.Sprintf(
		"Q5 (fresh attribute pair): Column Loads / Split Files = %.1fx wall, %.1fx file bytes; Partial V2 / Split Files = %.1fx wall, %.1fx file bytes",
		cl.Wall.Seconds()/sf.Wall.Seconds(), float64(fileBytes(cl))/float64(fileBytes(sf)),
		pv.Wall.Seconds()/sf.Wall.Seconds(), float64(fileBytes(pv))/float64(fileBytes(sf))))
	return &Report{
		ID:     "fig4",
		Title:  fmt.Sprintf("Adaptive loading with file reorganization (%s x 12 attrs)", sizeLabel(rows)),
		XAxis:  "query",
		Series: []Series{monetdb, colLoads, partialV2, splits},
		Notes:  notes,
	}, nil
}

// Joins reproduces the §2.2 in-text join experiment: aggregations over a
// 1:1 join of two tables — an Awk hash join, a Unix-sort+merge-join
// pipeline, a cold DB run and a hot DB run.
func Joins(c Config) (*Report, error) {
	rows := c.scale(300_000)
	lp, err := c.ensureTable("joinL", rows, 2, 7)
	if err != nil {
		return nil, err
	}
	rp, err := c.ensureTable("joinR", rows, 2, 8)
	if err != nil {
		return nil, err
	}
	var out []Series
	x := float64(rows)
	label := sizeLabel(rows)

	lt := baseline.Table{Path: lp, NumCols: 2}
	rt := baseline.Table{Path: rp, NumCols: 2}

	// Awk hash join.
	{
		var counters metrics.Counters
		timer := metrics.StartTimer()
		v, err := baseline.HashJoinScript(lt, rt, 0, 0, []int{1}, []int{1}, &counters)
		if err != nil {
			return nil, err
		}
		sumAggs := []exec.AggSpec{
			{Kind: sql.AggSum, Col: exec.ColKey{Tab: 0, Col: 1}},
			{Kind: sql.AggSum, Col: exec.ColKey{Tab: 1, Col: 1}},
		}
		if _, err := aggregate(v, sumAggs); err != nil {
			return nil, err
		}
		work := counters.Snapshot()
		out = append(out, Series{Name: "Awk hash join", Points: []Point{{
			X: x, Label: label, Wall: timer.Elapsed(), Work: work,
		}}})
	}

	// Unix sort + Awk merge join.
	{
		var counters metrics.Counters
		tmp, err := c.dataDir()
		if err != nil {
			return nil, err
		}
		timer := metrics.StartTimer()
		v, err := baseline.SortMergeJoinScript(lt, rt, 0, 0, []int{1}, []int{1}, tmp, &counters)
		if err != nil {
			return nil, err
		}
		sumAggs := []exec.AggSpec{
			{Kind: sql.AggSum, Col: exec.ColKey{Tab: 0, Col: 1}},
			{Kind: sql.AggSum, Col: exec.ColKey{Tab: 1, Col: 1}},
		}
		if _, err := aggregate(v, sumAggs); err != nil {
			return nil, err
		}
		work := counters.Snapshot()
		out = append(out, Series{Name: "sort+merge join", Points: []Point{{
			X: x, Label: label, Wall: timer.Elapsed(), Work: work,
		}}})
	}

	// DB: data already loaded (loading excluded, as in the paper's DB
	// numbers); cold restores it from disk, hot finds it in memory.
	{
		q := "select sum(l.a2), sum(r.a2), count(*) from L l join Rt r on l.a1 = r.a1"
		cold, hot, err := coldHotDB(map[string]string{"L": lp, "Rt": rp}, q, q, q)
		if err != nil {
			return nil, err
		}
		cold.X, cold.Label, hot.X, hot.Label = x, label, x, label
		out = append(out, Series{Name: "Cold DB", Points: []Point{cold}})
		out = append(out, Series{Name: "Hot DB", Points: []Point{hot}})
	}

	return &Report{
		ID:     "joins",
		Title:  "Join experiment (1:1 join, aggregations)",
		XAxis:  "input size",
		Series: out,
		Notes: []string{
			"Paper (2x10^8 tuples): Awk hash 387s; sort+merge 247s; cold DB 39s; hot DB 5s.",
			"Expected shape: hash-awk > sort+merge-awk > cold DB >> hot DB.",
		},
	}, nil
}
