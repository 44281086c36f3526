package experiments

import (
	"context"
	"fmt"
	"os"

	"nodb/internal/catalog"
	"nodb/internal/expr"
	"nodb/internal/loader"
	"nodb/internal/metrics"
	"nodb/internal/splitfile"
	"nodb/internal/storage"
)

// AblationPositionalMap measures the positional map's effect: after a load
// that recorded attribute positions, loading a later attribute either
// re-tokenizes each row from the start (off) or jumps to the recorded
// anchor (on).
func AblationPositionalMap(c Config) (*Report, error) {
	rows := c.scale(300_000)
	const cols = 10
	path, err := c.ensureTable("ablpm", rows, cols, 5)
	if err != nil {
		return nil, err
	}
	run := func(use bool) (Point, error) {
		var counters metrics.Counters
		cat := catalog.New(catalog.Options{Counters: &counters})
		tab, err := cat.Link("R", path)
		if err != nil {
			return Point{}, err
		}
		ld := &loader.Loader{Counters: &counters, RecordPositions: true, UsePositions: use}
		// Warm load: column 5, recording positions (not measured).
		if err := ld.ColumnLoadContext(context.Background(), tab, []int{5}); err != nil {
			return Point{}, err
		}
		counters.Reset()
		timer := metrics.StartTimer()
		if err := ld.ColumnLoadContext(context.Background(), tab, []int{8}); err != nil {
			return Point{}, err
		}
		work := counters.Snapshot()
		return Point{X: 1, Label: "load a9 after a6", Wall: timer.Elapsed(), Work: work}, nil
	}
	on, err := run(true)
	if err != nil {
		return nil, err
	}
	off, err := run(false)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:     "abl-pm",
		Title:  fmt.Sprintf("Positional map on/off (%s x %d attrs)", sizeLabel(rows), cols),
		XAxis:  "scenario",
		Series: []Series{{Name: "posmap on", Points: []Point{on}}, {Name: "posmap off", Points: []Point{off}}},
		Notes: []string{
			fmt.Sprintf("attrs tokenized: on=%d off=%d (on jumps to the recorded anchor attribute)",
				on.Work.AttrsTokenized, off.Work.AttrsTokenized),
		},
	}, nil
}

// AblationSplitFiles measures what split files save when the workload
// returns for more columns: total bytes read over a 4-step column-loading
// sequence, with and without file splitting.
func AblationSplitFiles(c Config) (*Report, error) {
	rows := c.scale(300_000)
	const cols = 12
	path, err := c.ensureTable("ablsplit", rows, cols, 6)
	if err != nil {
		return nil, err
	}
	sequence := [][]int{{10, 11}, {6, 7}, {2, 3}, {0, 1}}

	run := func(split bool) (Series, error) {
		var counters metrics.Counters
		splitDir, err := os.MkdirTemp("", "nodb-ablsplit-*")
		if err != nil {
			return Series{}, err
		}
		defer os.RemoveAll(splitDir)
		cat := catalog.New(catalog.Options{Counters: &counters})
		tab, err := cat.Link("R", path)
		if err != nil {
			return Series{}, err
		}
		reg := splitfile.NewRegistry(splitDir, path, cols, &counters)
		ld := &loader.Loader{Counters: &counters}
		name := "column loads"
		if split {
			name = "split files"
		}
		s := Series{Name: name}
		for i, colset := range sequence {
			before := counters.Snapshot()
			timer := metrics.StartTimer()
			if split {
				err = ld.SplitColumnLoadContext(context.Background(), tab, reg, colset)
			} else {
				err = ld.ColumnLoadContext(context.Background(), tab, colset)
			}
			if err != nil {
				return Series{}, err
			}
			work := counters.Snapshot().Sub(before)
			s.Points = append(s.Points, Point{
				X: float64(i + 1), Label: fmt.Sprintf("load %v", colset), Wall: timer.Elapsed(), Work: work,
			})
		}
		return s, nil
	}
	withSplit, err := run(true)
	if err != nil {
		return nil, err
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}
	var splitRaw, splitBytes, plainBytes int64
	for _, p := range withSplit.Points {
		splitRaw += p.Work.RawBytesRead
		splitBytes += p.Work.SplitBytesRead
	}
	for _, p := range without.Points {
		plainBytes += p.Work.RawBytesRead
	}
	return &Report{
		ID:     "abl-split",
		Title:  fmt.Sprintf("Split files vs re-reading the raw file (%s x %d attrs)", sizeLabel(rows), cols),
		XAxis:  "load step",
		Series: []Series{without, withSplit},
		Notes: []string{
			fmt.Sprintf("file bytes read over the sequence: plain=%d raw; split=%d raw + %d from split files (%.1fx less)",
				plainBytes, splitRaw, splitBytes, float64(plainBytes)/float64(splitRaw+splitBytes)),
		},
	}, nil
}

// AblationWorkers measures tokenizer parallelism on a full load. On a
// single-core box the wall-clock benefit is nil; the experiment verifies
// correctness of the parallel path and reports the measured times.
func AblationWorkers(c Config) (*Report, error) {
	rows := c.scale(500_000)
	path, err := c.ensureTable("ablpar", rows, 8, 9)
	if err != nil {
		return nil, err
	}
	wall := Series{Name: "wall-clock"}
	for _, w := range []int{1, 2, 4} {
		var counters metrics.Counters
		cat := catalog.New(catalog.Options{Counters: &counters})
		tab, err := cat.Link("R", path)
		if err != nil {
			return nil, err
		}
		ld := &loader.Loader{Counters: &counters, Workers: w}
		timer := metrics.StartTimer()
		if err := ld.FullLoadContext(context.Background(), tab); err != nil {
			return nil, err
		}
		wall.Points = append(wall.Points, Point{
			X: float64(w), Label: fmt.Sprintf("%d workers", w), Wall: timer.Elapsed(), Work: counters.Snapshot(),
		})
	}
	return &Report{
		ID:     "abl-par",
		Title:  fmt.Sprintf("Tokenizer worker count, full load (%s x 8 attrs)", sizeLabel(rows)),
		XAxis:  "workers",
		Series: []Series{wall},
		Notes:  []string{"Wall-clock parity is expected on a single-core machine; the parallel path's correctness is covered by tests."},
	}, nil
}

// AblationEarlyAbandon measures early row abandonment in the partial
// loading operator: a 1%-selective predicate on the first attribute lets
// the tokenizer skip the rest of almost every row.
func AblationEarlyAbandon(c Config) (*Report, error) {
	rows := c.scale(500_000)
	path, err := c.ensureTable("ablearly", rows, 8, 10)
	if err != nil {
		return nil, err
	}
	conj := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(int64(rows) / 100)},
	}}
	need := []int{0, 7} // forces tokenizing the whole row when not abandoning

	run := func(name string, disable bool) (Series, error) {
		var counters metrics.Counters
		cat := catalog.New(catalog.Options{Counters: &counters})
		tab, err := cat.Link("R", path)
		if err != nil {
			return Series{}, err
		}
		ld := &loader.Loader{Counters: &counters, DisableEarlyAbandon: disable}
		timer := metrics.StartTimer()
		if _, err := ld.PartialScanContext(context.Background(), tab, need, conj, 0); err != nil {
			return Series{}, err
		}
		work := counters.Snapshot()
		return Series{Name: name, Points: []Point{{
			X: 1, Label: "1% selective scan", Wall: timer.Elapsed(), Work: work,
		}}}, nil
	}
	withAbandon, err := run("early abandon", false)
	if err != nil {
		return nil, err
	}
	without, err := run("no abandon", true)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:     "abl-early",
		Title:  fmt.Sprintf("Early row abandonment (%s x 8 attrs, 1%% selective)", sizeLabel(rows)),
		XAxis:  "scenario",
		Series: []Series{withAbandon, without},
		Notes: []string{
			fmt.Sprintf("attrs tokenized: abandon=%d full=%d; values parsed: %d vs %d",
				withAbandon.Points[0].Work.AttrsTokenized, without.Points[0].Work.AttrsTokenized,
				withAbandon.Points[0].Work.ValuesParsed, without.Points[0].Work.ValuesParsed),
		},
	}, nil
}
