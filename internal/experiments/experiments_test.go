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
	if awk.Total() != 0 {
		t.Errorf("Awk loading cost = %v, want 0", awk.Total())
	}
	for i := 1; i < len(db.Points); i++ {
		if db.Points[i].ModelSec <= db.Points[i-1].ModelSec {
			t.Errorf("DB load not increasing: %v then %v", db.Points[i-1].ModelSec, db.Points[i].ModelSec)
		}
	}
	if db.Points[len(db.Points)-1].Work.RawBytesRead == 0 {
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
		a, c, h, x := awk.Points[i].ModelSec, cold.Points[i].ModelSec, hot.Points[i].ModelSec, idx.Points[i].ModelSec
		if !(a > c) {
			t.Errorf("point %d: Awk (%v) should exceed cold DB (%v)", i, a, c)
		}
		if !(c > h) {
			t.Errorf("point %d: cold DB (%v) should exceed hot DB (%v)", i, c, h)
		}
		if !(h > x) {
			t.Errorf("point %d: hot DB (%v) should exceed index DB (%v)", i, h, x)
		}
	}
	// The Awk/hot gap should be around an order of magnitude at the
	// largest size (paper: "one order of magnitude faster").
	last := len(awk.Points) - 1
	if ratio := awk.Points[last].ModelSec / hot.Points[last].ModelSec; ratio < 5 {
		t.Errorf("Awk/hot ratio = %.1f, want >= 5", ratio)
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
	h, m, c, ht := hashS.Total(), mergeS.Total(), coldS.Total(), hotS.Total()
	// Paper ordering: hash-awk > sort+merge-awk > cold DB >> hot DB.
	if !(h > m) {
		t.Errorf("hash (%v) should exceed sort+merge (%v)", h, m)
	}
	if !(m > c) {
		t.Errorf("sort+merge (%v) should exceed cold DB (%v)", m, c)
	}
	if !(c > ht) {
		t.Errorf("cold (%v) should exceed hot (%v)", c, ht)
	}
}

func TestPerlRatio(t *testing.T) {
	r, err := Perl(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	awk, _ := r.SeriesByName("Awk")
	perl, _ := r.SeriesByName("Perl")
	ratio := perl.Total() / awk.Total()
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("Perl/Awk ratio = %.2f, want ~2 (paper)", ratio)
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
	// MonetDB: Q1 dominates, Q2+ cheap.
	if monet.Points[0].ModelSec < 10*monet.Points[1].ModelSec {
		t.Errorf("MonetDB Q1 (%v) should dwarf Q2 (%v)", monet.Points[0].ModelSec, monet.Points[1].ModelSec)
	}
	// Column Loads: Q1 cheaper than MonetDB's Q1 (roughly half).
	if col.Points[0].ModelSec >= monet.Points[0].ModelSec {
		t.Errorf("Column Loads Q1 (%v) should undercut MonetDB Q1 (%v)", col.Points[0].ModelSec, monet.Points[0].ModelSec)
	}
	// Column Loads: Q11 bump (new columns), then cheap again.
	if col.Points[10].ModelSec < 5*col.Points[9].ModelSec {
		t.Errorf("Column Loads Q11 (%v) should spike vs Q10 (%v)", col.Points[10].ModelSec, col.Points[9].ModelSec)
	}
	if col.Points[11].ModelSec > col.Points[10].ModelSec/5 {
		t.Errorf("Column Loads Q12 (%v) should drop after the Q11 load (%v)", col.Points[11].ModelSec, col.Points[10].ModelSec)
	}
	// MySQL CSV: roughly constant (max/min < 3).
	mn, mx := mysql.Points[0].ModelSec, mysql.Points[0].ModelSec
	for _, p := range mysql.Points {
		if p.ModelSec < mn {
			mn = p.ModelSec
		}
		if p.ModelSec > mx {
			mx = p.ModelSec
		}
	}
	if mx/mn > 3 {
		t.Errorf("MySQL CSV should be ~constant: min=%v max=%v", mn, mx)
	}
	// Partial V1 re-reads every query: every point pays raw bytes.
	for i, p := range v1.Points {
		if p.Work.RawBytesRead == 0 {
			t.Errorf("Partial V1 Q%d read no raw bytes", i+1)
		}
	}
	// MonetDB steady state beats MySQL CSV (the point of loading).
	if monet.Points[5].ModelSec >= mysql.Points[5].ModelSec {
		t.Errorf("hot MonetDB Q6 (%v) should beat MySQL CSV (%v)", monet.Points[5].ModelSec, mysql.Points[5].ModelSec)
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
	// First query: Split Files well below MonetDB (paper: ~4x).
	if sf.Points[0].ModelSec >= monet.Points[0].ModelSec {
		t.Errorf("Split Files Q1 (%v) should undercut MonetDB Q1 (%v)", sf.Points[0].ModelSec, monet.Points[0].ModelSec)
	}
	// Reruns (even queries) are cheap for every adaptive strategy.
	for _, s := range []Series{col, v2, sf} {
		for i := 1; i < len(s.Points); i += 2 {
			first, rerun := s.Points[i-1].ModelSec, s.Points[i].ModelSec
			if rerun > first/2 {
				t.Errorf("%s Q%d rerun (%v) should be far below first run (%v)", s.Name, i+1, rerun, first)
			}
		}
	}
	// Later misses: Split Files cheaper than Column Loads (paper: ~5x)
	// and than Partial V2 (paper: ~2x). Q5 is the third distinct query.
	q5 := 4
	if sf.Points[q5].ModelSec >= col.Points[q5].ModelSec {
		t.Errorf("Split Files Q5 (%v) should beat Column Loads Q5 (%v)", sf.Points[q5].ModelSec, col.Points[q5].ModelSec)
	}
	if sf.Points[q5].ModelSec >= v2.Points[q5].ModelSec {
		t.Errorf("Split Files Q5 (%v) should beat Partial V2 Q5 (%v)", sf.Points[q5].ModelSec, v2.Points[q5].ModelSec)
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
	// After the first step, split loads must read fewer file bytes.
	var plainBytes, splitBytes int64
	for i := 1; i < len(plain.Points); i++ {
		plainBytes += plain.Points[i].Work.RawBytesRead
		splitBytes += split.Points[i].Work.RawBytesRead + split.Points[i].Work.SplitBytesRead
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
		// The tightest budget must pay at least as much as no budget: a
		// workload bigger than the budget keeps re-loading.
		if s.Points[len(s.Points)-1].ModelSec < s.Points[0].ModelSec {
			t.Errorf("%s: tight budget (%.4fs) cheaper than unlimited (%.4fs)",
				name, s.Points[len(s.Points)-1].ModelSec, s.Points[0].ModelSec)
		}
	}
}

func TestReportFormat(t *testing.T) {
	r, err := Perl(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	out := r.Format()
	if !strings.Contains(out, "perl") && !strings.Contains(out, "Perl") {
		t.Errorf("Format output missing series: %q", out)
	}
	wall := r.FormatWall()
	if !strings.Contains(wall, "wall-clock") {
		t.Errorf("FormatWall missing marker: %q", wall)
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

func TestFig1aMemoryKnee(t *testing.T) {
	r, err := Fig1a(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	db, _ := r.SeriesByName("DB load")
	n := len(db.Points)
	if n < 3 {
		t.Fatal("need at least 3 sizes")
	}
	// Per-row loading cost jumps at the last size (memory exhausted).
	perRowLast := db.Points[n-1].ModelSec / db.Points[n-1].X
	perRowPrev := db.Points[n-2].ModelSec / db.Points[n-2].X
	if perRowLast < perRowPrev*1.3 {
		t.Errorf("expected superlinear knee: per-row %v then %v", perRowPrev, perRowLast)
	}
}
