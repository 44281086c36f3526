package experiments

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nodb/internal/cracking"
	"nodb/internal/exec"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// smallCfg keeps experiment tests fast: ~1% of default scale.
func smallCfg(t *testing.T) Config {
	t.Helper()
	return Config{DataDir: t.TempDir(), Scale: 0.01}
}

func TestFig1aShape(t *testing.T) {
	r, err := Fig1a(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	db, ok := r.SeriesByName("DB load")
	if !ok {
		t.Fatal("missing DB load series")
	}
	awk, _ := r.SeriesByName("Awk")
	// Awk loading is zero; DB loading grows with size.
	for _, p := range awk.Points {
		if p.Work != (metrics.Snapshot{}) || p.Wall != 0 {
			t.Errorf("Awk loading at %s: work %v, wall %v; want none", p.Label, p.Work, p.Wall)
		}
	}
	for i := 1; i < len(db.Points); i++ {
		prev, cur := db.Points[i-1].Work, db.Points[i].Work
		if cur.RawBytesRead <= prev.RawBytesRead || cur.ValuesParsed <= prev.ValuesParsed {
			t.Errorf("DB load not increasing: %s read %d B, parsed %d; %s read %d B, parsed %d",
				db.Points[i-1].Label, prev.RawBytesRead, prev.ValuesParsed,
				db.Points[i].Label, cur.RawBytesRead, cur.ValuesParsed)
		}
	}
	if db.Points[0].Work.RawBytesRead == 0 {
		t.Error("loading should read the raw file")
	}
}

func TestFig1bShape(t *testing.T) {
	r, err := Fig1b(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	awk, _ := r.SeriesByName("Awk")
	cold, _ := r.SeriesByName("Cold DB")
	hot, _ := r.SeriesByName("Hot DB")
	idx, _ := r.SeriesByName("Index DB")
	for i := range awk.Points {
		a, c, h, x := awk.Points[i].Work, cold.Points[i].Work, hot.Points[i].Work, idx.Points[i].Work
		label := awk.Points[i].Label
		// Awk re-reads and re-tokenizes the whole file on every query.
		if a.RawBytesRead == 0 || a.RowsTokenized != int64(awk.Points[i].X) {
			t.Errorf("%s: Awk read %d raw bytes and tokenized %d rows, want the whole file", label, a.RawBytesRead, a.RowsTokenized)
		}
		// Cold DB restores the loaded columns from disk, never the raw file.
		if c.RawBytesRead != 0 || c.SnapshotBytesRead == 0 {
			t.Errorf("%s: cold DB read %d raw and %d snapshot bytes, want 0 and > 0", label, c.RawBytesRead, c.SnapshotBytesRead)
		}
		// Hot DB finds them in memory.
		if h.RawBytesRead != 0 || h.SnapshotBytesRead != 0 {
			t.Errorf("%s: hot DB read %d raw and %d snapshot bytes, want neither", label, h.RawBytesRead, h.SnapshotBytesRead)
		}
		// The cracked column touches only the qualifying piece.
		if x.InternalBytesRead >= h.InternalBytesRead {
			t.Errorf("%s: index DB read %d internal bytes, hot DB %d", label, x.InternalBytesRead, h.InternalBytesRead)
		}
	}
}

// TestSelectCracked holds the Index DB's cracked Q1 to the engine's dense
// scan and filter over the same columns, query after query while the
// cracker reorganizes, and checks it charges less than the full scan.
func TestSelectCracked(t *testing.T) {
	const rows = 5000
	rng := rand.New(rand.NewSource(9))
	src := exec.DenseSource{NumRows: rows, Columns: map[int]*storage.DenseColumn{}}
	for c := 0; c < 4; c++ {
		col := storage.NewDense(schema.Int64, rows)
		for _, v := range rng.Perm(rows) {
			col.Ints = append(col.Ints, int64(v))
		}
		src.Columns[c] = col
	}
	cr := cracking.New(src.Columns[0].Ints)
	for i := 0; i < 8; i++ {
		_, conj := q1Stmt(rng, rows)
		var work metrics.Counters
		got, err := indexQ1(cr, src, conj, &work)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := exec.NewDenseScan(src, 0, []int{0, 1, 2, 3}, 0)
		if err != nil {
			t.Fatal(err)
		}
		v, err := exec.DrainView(exec.NewFilterOp(scan, 0, conj))
		if err != nil {
			t.Fatal(err)
		}
		want, err := aggregate(v, q1Aggs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d: cracked Q1 = %v, scanned Q1 = %v", i, got, want)
			}
		}
		if i > 0 && work.Snapshot().InternalBytesRead >= rows*8*4 {
			t.Errorf("query %d: cracked Q1 read %d bytes, a full scan reads %d", i, work.Snapshot().InternalBytesRead, rows*8*4)
		}
	}
	if cr.Pieces() < 8 {
		t.Errorf("cracker has %d pieces after 8 range queries", cr.Pieces())
	}
}

func TestJoinsShape(t *testing.T) {
	r, err := Joins(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	hashS, _ := r.SeriesByName("Awk hash join")
	mergeS, _ := r.SeriesByName("sort+merge join")
	coldS, _ := r.SeriesByName("Cold DB")
	hotS, _ := r.SeriesByName("Hot DB")
	h, m, c, ht := hashS.Points[0].Work, mergeS.Points[0].Work, coldS.Points[0].Work, hotS.Points[0].Work
	// The scripts re-read the raw files on every query.
	if h.RawBytesRead == 0 || m.RawBytesRead == 0 {
		t.Errorf("hash join read %d raw bytes, sort+merge %d; want both to read the files", h.RawBytesRead, m.RawBytesRead)
	}
	// Cold DB restores the loaded columns from disk; hot DB reads nothing.
	if c.RawBytesRead != 0 || c.SnapshotBytesRead == 0 {
		t.Errorf("cold DB read %d raw and %d snapshot bytes, want 0 and > 0", c.RawBytesRead, c.SnapshotBytesRead)
	}
	if ht.RawBytesRead != 0 || ht.SnapshotBytesRead != 0 {
		t.Errorf("hot DB read %d raw and %d snapshot bytes, want neither", ht.RawBytesRead, ht.SnapshotBytesRead)
	}
}

func TestPerlRatio(t *testing.T) {
	r, err := Perl(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	awk, _ := r.SeriesByName("Awk")
	perl, _ := r.SeriesByName("Perl")
	a, p := awk.Points[0].Work, perl.Points[0].Work
	rows := int64(perl.Points[0].X)
	// Perl splits out and parses all 4 attributes of every row; Awk stops
	// at the first failing predicate.
	if p.AttrsTokenized != 4*rows || p.ValuesParsed != 4*rows {
		t.Errorf("Perl tokenized %d and parsed %d attributes, want %d", p.AttrsTokenized, p.ValuesParsed, 4*rows)
	}
	if a.AttrsTokenized >= p.AttrsTokenized || a.ValuesParsed >= p.ValuesParsed {
		t.Errorf("Awk tokenized %d and parsed %d attributes, want fewer than Perl", a.AttrsTokenized, a.ValuesParsed)
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	monet, _ := r.SeriesByName("MonetDB")
	mysql, _ := r.SeriesByName("MySQL CSV")
	col, _ := r.SeriesByName("Column Loads")
	v1, _ := r.SeriesByName("Partial Loads V1")

	if len(monet.Points) != 20 {
		t.Fatalf("points = %d, want 20", len(monet.Points))
	}
	// MonetDB pays the raw file at Q1 only.
	for i, p := range monet.Points {
		if (i == 0) != (p.Work.RawBytesRead > 0) {
			t.Errorf("MonetDB Q%d read %d raw bytes", i+1, p.Work.RawBytesRead)
		}
	}
	// Column Loads: Q1 loads only the queried columns, fewer than MonetDB.
	if col.Points[0].Work.ValuesParsed >= monet.Points[0].Work.ValuesParsed {
		t.Errorf("Column Loads Q1 parsed %d values, MonetDB Q1 %d", col.Points[0].Work.ValuesParsed, monet.Points[0].Work.ValuesParsed)
	}
	// Column Loads: the Q11 column shift reads the raw file again, Q10 and
	// Q12 do not.
	for _, q := range []int{10, 11, 12} {
		if got := col.Points[q-1].Work.RawBytesRead; (q == 11) != (got > 0) {
			t.Errorf("Column Loads Q%d read %d raw bytes", q, got)
		}
	}
	// MySQL CSV: the same full re-read every query.
	for i, p := range mysql.Points {
		if p.Work.RawBytesRead == 0 || p.Work != mysql.Points[0].Work {
			t.Errorf("MySQL CSV Q%d work %v, want Q1's %v", i+1, p.Work, mysql.Points[0].Work)
		}
	}
	// Partial V1 re-reads every query: every point pays raw bytes.
	for i, p := range v1.Points {
		if p.Work.RawBytesRead == 0 {
			t.Errorf("Partial V1 Q%d read no raw bytes", i+1)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	monet, _ := r.SeriesByName("MonetDB")
	col, _ := r.SeriesByName("Column Loads")
	v2, _ := r.SeriesByName("Partial Loads V2")
	sf, _ := r.SeriesByName("Split Files")
	if len(sf.Points) != 12 {
		t.Fatalf("points = %d, want 12", len(sf.Points))
	}
	// First query: Split Files parses only the queried pair, MonetDB every
	// attribute.
	if sf.Points[0].Work.ValuesParsed >= monet.Points[0].Work.ValuesParsed {
		t.Errorf("Split Files Q1 parsed %d values, MonetDB Q1 %d", sf.Points[0].Work.ValuesParsed, monet.Points[0].Work.ValuesParsed)
	}
	// Its Q1 point includes the split-file load that cracks the raw file.
	if w := sf.Points[0].Work.SplitBytesWritten; w <= 0 {
		t.Errorf("Split Files Q1 wrote %d split-file bytes, want > 0", w)
	}
	// Reruns (even queries) read no file for every adaptive strategy.
	for _, s := range []Series{col, v2, sf} {
		for i := 1; i < len(s.Points); i += 2 {
			if w := s.Points[i].Work; w.RawBytesRead != 0 || w.SplitBytesRead != 0 {
				t.Errorf("%s Q%d rerun read %d raw and %d split-file bytes", s.Name, i+1, w.RawBytesRead, w.SplitBytesRead)
			}
		}
	}
	// Later misses: Split Files reads its split files only, and fewer
	// bytes of them than Column Loads and Partial V2 re-read of the raw
	// file. Q5 is the third distinct query.
	q5 := 4
	split := sf.Points[q5].Work
	if split.RawBytesRead != 0 || split.SplitBytesRead == 0 {
		t.Errorf("Split Files Q5 read %d raw and %d split-file bytes, want 0 and > 0", split.RawBytesRead, split.SplitBytesRead)
	}
	for _, s := range []Series{col, v2} {
		if raw := s.Points[q5].Work.RawBytesRead; split.SplitBytesRead >= raw {
			t.Errorf("Split Files Q5 read %d split-file bytes, %s %d raw", split.SplitBytesRead, s.Name, raw)
		}
	}
}

func TestAblationPositionalMap(t *testing.T) {
	r, err := AblationPositionalMap(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	on, _ := r.SeriesByName("posmap on")
	off, _ := r.SeriesByName("posmap off")
	if on.Points[0].Work.AttrsTokenized >= off.Points[0].Work.AttrsTokenized {
		t.Errorf("posmap should reduce tokenized attrs: on=%d off=%d",
			on.Points[0].Work.AttrsTokenized, off.Points[0].Work.AttrsTokenized)
	}
}

func TestAblationSplitFiles(t *testing.T) {
	r, err := AblationSplitFiles(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := r.SeriesByName("column loads")
	split, _ := r.SeriesByName("split files")
	// After the first step, split loads read split files only, and fewer
	// bytes of them than plain loads read of the raw file.
	var plainBytes, splitBytes int64
	for i := 1; i < len(plain.Points); i++ {
		plainBytes += plain.Points[i].Work.RawBytesRead
		w := split.Points[i].Work
		if w.RawBytesRead != 0 || w.SplitBytesRead == 0 {
			t.Errorf("split step %d read %d raw and %d split-file bytes, want 0 and > 0", i+1, w.RawBytesRead, w.SplitBytesRead)
		}
		splitBytes += w.SplitBytesRead
	}
	if splitBytes >= plainBytes {
		t.Errorf("split files should read less: split=%d plain=%d", splitBytes, plainBytes)
	}
}

func TestAblationWorkers(t *testing.T) {
	r, err := AblationWorkers(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	wall, ok := r.SeriesByName("wall-clock")
	if !ok || len(wall.Points) != 3 {
		t.Fatalf("wall-clock series missing or wrong size: %+v", r.Series)
	}
	// All worker counts tokenize the same number of rows.
	base := wall.Points[0].Work.RowsTokenized
	for _, p := range wall.Points[1:] {
		if p.Work.RowsTokenized != base {
			t.Errorf("%s tokenized %d rows, want %d", p.Label, p.Work.RowsTokenized, base)
		}
	}
}

func TestAblationEarlyAbandon(t *testing.T) {
	r, err := AblationEarlyAbandon(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := r.SeriesByName("early abandon")
	full, _ := r.SeriesByName("no abandon")
	if ab.Points[0].Work.AttrsTokenized >= full.Points[0].Work.AttrsTokenized/2 {
		t.Errorf("abandon should cut tokenization drastically: %d vs %d",
			ab.Points[0].Work.AttrsTokenized, full.Points[0].Work.AttrsTokenized)
	}
}

func TestAblationBudget(t *testing.T) {
	r, err := AblationBudget(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"evict=cost", "evict=lru"} {
		s, ok := r.SeriesByName(name)
		if !ok {
			t.Fatalf("missing series %s", name)
		}
		if len(s.Points) != 5 {
			t.Fatalf("%s: %d points, want 5", name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Wall <= 0 {
				t.Errorf("%s %s: wall %v, want the queries' measured time", name, p.Label, p.Wall)
			}
		}
		// The tightest budget evicts and re-reads at least what no budget
		// reads: a workload bigger than the budget keeps re-loading.
		tight, free := s.Points[len(s.Points)-1].Work, s.Points[0].Work
		if tight.Evictions == 0 || tight.RawBytesRead < free.RawBytesRead {
			t.Errorf("%s: tight budget evicted %d and read %d raw bytes; unlimited read %d",
				name, tight.Evictions, tight.RawBytesRead, free.RawBytesRead)
		}
	}
}

func TestReportFormat(t *testing.T) {
	r, err := Perl(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	out := r.Format()
	if !strings.Contains(out, "Perl") {
		t.Errorf("Format output missing series: %q", out)
	}
	perl, _ := r.SeriesByName("Perl")
	if want := fmtSec(perl.Points[0].Wall.Seconds()); !strings.Contains(out, want) {
		t.Errorf("Format output missing Perl's wall time %s: %q", want, out)
	}
}

func TestAllAndLookup(t *testing.T) {
	// The registry is the paper's artifacts and their ablations, in order.
	want := []string{
		"fig1a", "fig1b", "joins", "perl", "fig3", "fig4",
		"abl-pm", "abl-split", "abl-par", "abl-early", "abl-budget",
	}
	var got []string
	for _, r := range All() {
		if r.Run == nil || r.Description == "" {
			t.Errorf("incomplete runner %q", r.ID)
		}
		got = append(got, r.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("experiment ids = %v, want %v", got, want)
	}
	if _, ok := Lookup("fig3"); !ok {
		t.Error("Lookup(fig3) failed")
	}
	for _, id := range []string{"nope", "cluster-scaling"} {
		if _, ok := Lookup(id); ok {
			t.Errorf("Lookup(%s) should fail", id)
		}
	}
}

func TestFmtSec(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.00002: "0.02ms",
		0.5:     "500.0ms",
		2.5:     "2.50s",
		1234:    "1234s",
	}
	for in, want := range cases {
		if got := fmtSec(in); got != want {
			t.Errorf("fmtSec(%v) = %q, want %q", in, got, want)
		}
	}
}
