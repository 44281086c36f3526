package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"nodb/internal/baseline"
	"nodb/internal/catalog"
	"nodb/internal/core"
	"nodb/internal/cracking"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/loader"
	"nodb/internal/metrics"
	"nodb/internal/plan"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// fig1Sizes are the input sizes (rows × 4 columns), scaled down from the
// paper's 10^6..10^9 to laptop scale.
func fig1Sizes(c Config) []int {
	return []int{c.scale(50_000), c.scale(200_000), c.scale(500_000), c.scale(1_000_000)}
}

func sizeLabel(rows int) string {
	switch {
	case rows >= 1_000_000:
		return fmt.Sprintf("%.3gM tuples", float64(rows)/1e6)
	case rows >= 1_000:
		return fmt.Sprintf("%dk tuples", rows/1000)
	default:
		return fmt.Sprintf("%d tuples", rows)
	}
}

// Fig1a reproduces Figure 1a: the loading/initialization cost a DBMS pays
// before the first query versus the zero cost of pointing a script at the
// file.
func Fig1a(c Config) (*Report, error) {
	var db, awk Series
	db.Name = "DB load"
	awk.Name = "Awk"
	for _, rows := range fig1Sizes(c) {
		path, err := c.ensureTable("fig1", rows, 4, 1)
		if err != nil {
			return nil, err
		}
		var counters metrics.Counters
		cat := catalog.New(catalog.Options{Counters: &counters})
		tab, err := cat.Link("R", path)
		if err != nil {
			return nil, err
		}
		ld := &loader.Loader{Counters: &counters}
		timer := metrics.StartTimer()
		if err := ld.FullLoadContext(context.Background(), tab); err != nil {
			return nil, err
		}
		work := counters.Snapshot()
		db.Points = append(db.Points, Point{
			X: float64(rows), Label: sizeLabel(rows), Wall: timer.Elapsed(), Work: work,
		})
		awk.Points = append(awk.Points, Point{X: float64(rows), Label: sizeLabel(rows)})
	}
	return &Report{
		ID:     "fig1a",
		Title:  "Loading/Initialization costs",
		XAxis:  "input size",
		Series: []Series{db, awk},
		Notes: []string{
			"Awk needs no loading step: its cost is zero by construction.",
			"The paper's knee at 10^9 tuples (the load outgrows RAM and spills) needs a table larger than memory; these sizes fit, so the DB load grows linearly.",
		},
	}, nil
}

// q1Stmt builds the paper's Q1 for a table of `rows` unique ints: 10%
// selective overall (20% range on a1 × 50% range on a2).
func q1Stmt(rng *rand.Rand, rows int) (string, expr.Conjunction) {
	w1 := int64(float64(rows) * 0.2)
	maxLo := int64(rows) - w1
	if maxLo <= 0 {
		maxLo = 1
	}
	lo1 := rng.Int63n(maxLo)
	hi1 := lo1 + w1
	lo2 := int64(float64(rows) * 0.25)
	hi2 := int64(float64(rows) * 0.75)
	q := fmt.Sprintf(
		"select sum(a1),min(a4),max(a3),avg(a2) from R where a1>%d and a1<%d and a2>%d and a2<%d",
		lo1, hi1, lo2, hi2)
	conj := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Gt, Val: storage.IntValue(lo1)},
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(hi1)},
		{Col: 1, Op: expr.Gt, Val: storage.IntValue(lo2)},
		{Col: 1, Op: expr.Lt, Val: storage.IntValue(hi2)},
	}}
	return q, conj
}

// q1Aggs are Q1's aggregates bound to baseline views.
var q1Aggs = []exec.AggSpec{
	{Kind: sql.AggSum, Col: exec.ColKey{Tab: 0, Col: 0}},
	{Kind: sql.AggMin, Col: exec.ColKey{Tab: 0, Col: 3}},
	{Kind: sql.AggMax, Col: exec.ColKey{Tab: 0, Col: 2}},
	{Kind: sql.AggAvg, Col: exec.ColKey{Tab: 0, Col: 1}},
}

// Fig1b reproduces Figure 1b: pure query processing cost (loading
// excluded) for Awk, a cold DB, a hot DB, and an adaptively indexed DB.
func Fig1b(c Config) (*Report, error) {
	series := map[string]*Series{
		"Awk":     {Name: "Awk"},
		"Cold DB": {Name: "Cold DB"},
		"Hot DB":  {Name: "Hot DB"},
		"IndexDB": {Name: "Index DB"},
	}
	rng := rand.New(rand.NewSource(c.seed()))

	for _, rows := range fig1Sizes(c) {
		path, err := c.ensureTable("fig1", rows, 4, 1)
		if err != nil {
			return nil, err
		}
		x := float64(rows)
		label := sizeLabel(rows)

		// Awk: re-parse the file, aggregate on the fly.
		{
			var counters metrics.Counters
			_, conj := q1Stmt(rng, rows)
			bt := baseline.Table{Path: path, NumCols: 4}
			timer := metrics.StartTimer()
			v, err := baseline.AwkScan(bt, []int{0, 1, 2, 3}, conj, &counters, 0)
			if err != nil {
				return nil, err
			}
			if _, err := aggregate(v, q1Aggs); err != nil {
				return nil, err
			}
			work := counters.Snapshot()
			series["Awk"].Points = append(series["Awk"].Points, Point{
				X: x, Label: label, Wall: timer.Elapsed(), Work: work,
			})
		}

		// DB: pre-load (not measured), then Q1 cold and Q1 hot.
		{
			load, _ := q1Stmt(rng, rows)
			qc, _ := q1Stmt(rng, rows)
			qh, _ := q1Stmt(rng, rows)
			cold, hot, err := coldHotDB(map[string]string{"R": path}, load, qc, qh)
			if err != nil {
				return nil, err
			}
			cold.X, cold.Label, hot.X, hot.Label = x, label, x, label
			series["Cold DB"].Points = append(series["Cold DB"].Points, cold)
			series["Hot DB"].Points = append(series["Hot DB"].Points, hot)
		}

		// Index DB: the columns are loaded (not measured), a cracker over
		// a1 warms up over a few queries, then one Q1 is measured.
		{
			var counters metrics.Counters
			tab, err := catalog.New(catalog.Options{Counters: &counters}).Link("R", path)
			if err != nil {
				return nil, err
			}
			cols := []int{0, 1, 2, 3}
			if err := (&loader.Loader{Counters: &counters}).ColumnLoadContext(context.Background(), tab, cols); err != nil {
				return nil, err
			}
			src, err := loader.DenseSourceFor(tab, cols, nil)
			if err != nil {
				return nil, err
			}
			cr := cracking.New(src.Columns[0].Ints)
			for i := 0; i < 6; i++ {
				_, conj := q1Stmt(rng, rows)
				if _, err := indexQ1(cr, src, conj, nil); err != nil {
					return nil, err
				}
			}
			_, conj := q1Stmt(rng, rows)
			var work metrics.Counters
			timer := metrics.StartTimer()
			if _, err := indexQ1(cr, src, conj, &work); err != nil {
				return nil, err
			}
			series["IndexDB"].Points = append(series["IndexDB"].Points, Point{
				X: x, Label: label, Wall: timer.Elapsed(), Work: work.Snapshot(),
			})
		}
	}
	return &Report{
		ID:    "fig1b",
		Title: "Query processing costs (Q1, 10% selectivity; loading excluded)",
		XAxis: "input size",
		Series: []Series{
			*series["Awk"], *series["Cold DB"], *series["Hot DB"], *series["IndexDB"],
		},
		Notes: []string{
			"Expected shape (paper): Awk slowest by ~an order of magnitude at scale; cold DB > hot DB > index DB.",
			"Cold DB restores the loaded columns from the engine's snapshot cache (page cache warm); Hot DB finds them in memory.",
		},
	}, nil
}

// Perl reproduces the in-text observation that the Perl script ran about
// 2x slower than the Awk script.
func Perl(c Config) (*Report, error) {
	rows := c.scale(500_000)
	path, err := c.ensureTable("fig1", rows, 4, 1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed()))
	_, conj := q1Stmt(rng, rows)
	bt := baseline.Table{Path: path, NumCols: 4}

	run := func(name string, scanFn func(baseline.Table, []int, expr.Conjunction, *metrics.Counters, int) (*exec.View, error)) (Series, error) {
		var counters metrics.Counters
		timer := metrics.StartTimer()
		v, err := scanFn(bt, []int{0, 1, 2, 3}, conj, &counters, 0)
		if err != nil {
			return Series{}, err
		}
		if _, err := aggregate(v, q1Aggs); err != nil {
			return Series{}, err
		}
		work := counters.Snapshot()
		return Series{Name: name, Points: []Point{{
			X: float64(rows), Label: sizeLabel(rows), Wall: timer.Elapsed(), Work: work,
		}}}, nil
	}
	awk, err := run("Awk", baseline.AwkScan)
	if err != nil {
		return nil, err
	}
	perl, err := run("Perl", baseline.PerlScan)
	if err != nil {
		return nil, err
	}
	ratio := perl.Points[0].Wall.Seconds() / awk.Points[0].Wall.Seconds()
	return &Report{
		ID:     "perl",
		Title:  "Perl vs Awk on Q1",
		XAxis:  "input size",
		Series: []Series{awk, perl},
		Notes:  []string{fmt.Sprintf("Perl/Awk wall-clock ratio = %.2f (paper: ~2.0)", ratio)},
	}, nil
}

// indexQ1 is the Index DB's Q1 (paper Figure 1b, after Idreos et al.'s
// database cracking): the cracker answers a1's range and reorganizes
// itself as a side effect, the residual predicates run over the
// candidates' a2 values, and Q1's aggregates fold the qualifying rows.
// counters, when non-nil, is charged what a cracked column store reads:
// the partitioning passes, the qualifying cracker piece (value and row
// id), the residual column at the candidates and the four columns at the
// qualifying rows. It returns Q1's answer.
func indexQ1(cr *cracking.Cracker, src exec.DenseSource, conj expr.Conjunction, counters *metrics.Counters) ([]storage.Value, error) {
	cr.Counters = counters
	r, _ := conj.IntRange(0)
	cands := cr.RowIDs(cr.Select(r.Lo, r.Hi))
	var residual expr.Conjunction
	for _, p := range conj.Preds {
		if p.Col != 0 {
			residual.Preds = append(residual.Preds, p)
		}
	}
	var rows []int64
	for _, row := range cands {
		if residual.EvalRow(func(col int) storage.Value { return src.Columns[col].Value(int(row)) }) {
			rows = append(rows, row)
		}
	}
	v := exec.NewView()
	for c, base := range src.Columns {
		col := storage.NewDense(base.Typ, len(rows))
		for _, row := range rows {
			col.Ints = append(col.Ints, base.Ints[row])
		}
		v.AddCol(exec.ColKey{Tab: 0, Col: c}, col)
	}
	if counters != nil {
		n, q := int64(len(cands)), int64(len(rows))
		counters.AddInternalBytesRead(n*16 + n*8*int64(len(residual.Columns())) + q*8*int64(len(src.Columns)))
	}
	return aggregate(v, q1Aggs)
}

// aggregate folds every row of v into specs through the engine's
// aggregation operator, returning one value per spec; the baselines'
// costs include it.
func aggregate(v *exec.View, specs []exec.AggSpec) ([]storage.Value, error) {
	out := make([]int, len(specs))
	for i := range out {
		out[i] = i
	}
	b, err := exec.NewAggOp(exec.NewViewScan(v, 0), specs, out).Next()
	if err != nil {
		return nil, err
	}
	row := make([]storage.Value, len(specs))
	for i := range row {
		row[i] = b.Col(exec.OutKey(i)).Value(0)
	}
	return row, nil
}

// coldHotDB runs the paper's cold and hot DB over already-loaded tables
// (name → path). A first engine runs load, which is not measured, and
// closes, writing what it loaded to a snapshot cache. A fresh engine over
// that cache then runs cold, which restores the loaded columns from disk
// (the data is loaded but not in memory), and hot, which finds them in
// memory.
func coldHotDB(tables map[string]string, load, cold, hot string) (coldP, hotP Point, err error) {
	cacheDir, err := os.MkdirTemp("", "nodb-coldhot-*")
	if err != nil {
		return Point{}, Point{}, err
	}
	defer os.RemoveAll(cacheDir)
	run := func(queries ...string) ([]Point, error) {
		eng := core.NewEngine(core.Options{
			Policy:              plan.PolicyColumnLoads,
			CacheDir:            cacheDir,
			DisableRevalidation: true,
		})
		defer eng.Close()
		for name, path := range tables {
			if err := eng.Attach(name, core.TableSpec{Path: path}); err != nil {
				return nil, err
			}
		}
		var pts []Point
		for _, q := range queries {
			res, err := eng.Query(q)
			if err != nil {
				return nil, err
			}
			pts = append(pts, Point{Wall: res.Stats.Wall, Work: res.Stats.Work})
		}
		return pts, eng.Close()
	}
	if _, err := run(load); err != nil {
		return Point{}, Point{}, err
	}
	pts, err := run(cold, hot)
	if err != nil {
		return Point{}, Point{}, err
	}
	return pts[0], pts[1], nil
}
