package baseline

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

func writeCSV(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "b.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func conj(preds ...expr.Pred) expr.Conjunction { return expr.Conjunction{Preds: preds} }

func gt(col int, v int64) expr.Pred {
	return expr.Pred{Col: col, Op: expr.Gt, Val: storage.IntValue(v)}
}

func lt(col int, v int64) expr.Pred {
	return expr.Pred{Col: col, Op: expr.Lt, Val: storage.IntValue(v)}
}

const data = "10,100,7\n20,200,8\n30,300,9\n40,400,6\n"

func TestAwkScan(t *testing.T) {
	tb := Table{Path: writeCSV(t, data), NumCols: 3}
	var c metrics.Counters
	v, err := AwkScan(tb, []int{0, 2}, conj(gt(0, 15), lt(0, 35)), &c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
	if got := SumColumn(v, exec.ColKey{Tab: 0, Col: 2}); got != 17 {
		t.Errorf("sum col2 = %d, want 17", got)
	}
	if s := c.Snapshot(); s.RowsAbandoned != 2 {
		t.Errorf("abandoned = %d, want 2", s.RowsAbandoned)
	}
}

func TestPerlScanSameAnswerMoreWork(t *testing.T) {
	path := writeCSV(t, data)
	tb := Table{Path: path, NumCols: 3}
	q := conj(gt(0, 15), lt(0, 35))

	var ca, cp metrics.Counters
	va, err := AwkScan(tb, []int{0}, q, &ca, 0)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := PerlScan(tb, []int{0}, q, &cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if va.Len() != vp.Len() {
		t.Fatalf("awk=%d perl=%d", va.Len(), vp.Len())
	}
	sa, sp := ca.Snapshot(), cp.Snapshot()
	if sp.AttrsTokenized <= sa.AttrsTokenized {
		t.Errorf("perl should tokenize more: %d vs %d", sp.AttrsTokenized, sa.AttrsTokenized)
	}
	if sp.ValuesParsed <= sa.ValuesParsed {
		t.Errorf("perl should parse more: %d vs %d", sp.ValuesParsed, sa.ValuesParsed)
	}
}

func TestMySQLCSVScan(t *testing.T) {
	tb := Table{Path: writeCSV(t, data), NumCols: 3}
	var c metrics.Counters
	v, err := MySQLCSVScan(tb, []int{1}, conj(gt(1, 150)), &c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d, want 3", v.Len())
	}
}

func TestScansStateless(t *testing.T) {
	// Two identical scans must do identical work: no caching anywhere.
	tb := Table{Path: writeCSV(t, data), NumCols: 3}
	var c metrics.Counters
	if _, err := AwkScan(tb, []int{0}, conj(gt(0, 0)), &c, 0); err != nil {
		t.Fatal(err)
	}
	first := c.Snapshot()
	if _, err := AwkScan(tb, []int{0}, conj(gt(0, 0)), &c, 0); err != nil {
		t.Fatal(err)
	}
	second := c.Snapshot().Sub(first)
	if second.RawBytesRead != first.RawBytesRead {
		t.Errorf("second scan read %d, first %d — baselines must not cache", second.RawBytesRead, first.RawBytesRead)
	}
}

func joinFiles(t *testing.T, n int) (Table, Table) {
	t.Helper()
	var l, r strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&l, "%d,%d\n", i, i*2)
		fmt.Fprintf(&r, "%d,%d\n", n-1-i, i*3) // shuffled keys
	}
	dir := t.TempDir()
	lp := filepath.Join(dir, "l.csv")
	rp := filepath.Join(dir, "r.csv")
	os.WriteFile(lp, []byte(l.String()), 0o644)
	os.WriteFile(rp, []byte(r.String()), 0o644)
	return Table{Path: lp, NumCols: 2}, Table{Path: rp, NumCols: 2}
}

func TestHashJoinScript(t *testing.T) {
	l, r := joinFiles(t, 200)
	var c metrics.Counters
	v, err := HashJoinScript(l, r, 0, 0, []int{1}, []int{1}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 200 {
		t.Fatalf("join Len = %d, want 200 (1:1)", v.Len())
	}
}

func TestSortMergeJoinMatchesHashJoin(t *testing.T) {
	l, r := joinFiles(t, 300)
	var c1, c2 metrics.Counters
	hv, err := HashJoinScript(l, r, 0, 0, []int{1}, []int{1}, &c1)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := SortMergeJoinScript(l, r, 0, 0, []int{1}, []int{1}, t.TempDir(), &c2)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Len() != mv.Len() {
		t.Fatalf("hash=%d merge=%d", hv.Len(), mv.Len())
	}
	hsum := SumColumn(hv, exec.ColKey{Tab: 0, Col: 1}) + SumColumn(hv, exec.ColKey{Tab: 1, Col: 1})
	msum := SumColumn(mv, exec.ColKey{Tab: 0, Col: 1}) + SumColumn(mv, exec.ColKey{Tab: 1, Col: 1})
	if hsum != msum {
		t.Errorf("payload sums differ: %d vs %d", hsum, msum)
	}
	// The sort pipeline must have paid temp-file writes.
	if c2.Snapshot().InternalBytesWritten == 0 {
		t.Error("sort-merge should write sorted temp files")
	}
}

func TestSortMergeTempFilesRemoved(t *testing.T) {
	l, r := joinFiles(t, 10)
	tmp := t.TempDir()
	if _, err := SortMergeJoinScript(l, r, 0, 0, []int{1}, []int{1}, tmp, nil); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(tmp)
	if len(entries) != 0 {
		t.Errorf("temp files left behind: %v", entries)
	}
}

func TestScanMissingFile(t *testing.T) {
	tb := Table{Path: "/nonexistent.csv", NumCols: 1}
	if _, err := AwkScan(tb, []int{0}, expr.Conjunction{}, nil, 0); err == nil {
		t.Error("missing file should error")
	}
}

func TestTableDefaults(t *testing.T) {
	tb := Table{}
	if tb.delim() != ',' {
		t.Error("default delimiter should be comma")
	}
	if tb.colType(5) != 0 { // schema.Int64 == 0
		t.Error("default col type should be int64")
	}
}

// TestScriptScansStaySequential pins the baseline scans to one worker:
// their handlers append to shared state without locks, so inheriting the
// parallel-by-default scan would race (run under -race with several CPUs
// and a file large enough to split into portions).
func TestScriptScansStaySequential(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const rows = 40000
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d\n", i, i*2, i%7)
	}
	tb := Table{Path: writeCSV(t, sb.String()), NumCols: 3}
	v, err := AwkScan(tb, []int{0}, conj(gt(0, -1)), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != rows {
		t.Fatalf("AwkScan saw %d rows, want %d", len(v.Rows), rows)
	}
	for i := 1; i < len(v.Rows); i++ {
		if v.Rows[i] <= v.Rows[i-1] {
			t.Fatalf("rows out of order at %d: scan went parallel", i)
		}
	}
	lv, err := SortMergeJoinScript(tb, tb, 0, 0, []int{0}, []int{1}, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := lv.Len(); got != rows {
		t.Fatalf("SortMergeJoinScript matched %d rows, want %d (1:1 self-join)", got, rows)
	}
}

// TestMergeJoinMatchesHashJoin holds the merge join to the engine's hash
// join on random keys with duplicates: the same multiset of matched keys.
func TestMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(tab int) *exec.View {
		c := storage.NewDense(schema.Int64, 500)
		for i := 0; i < 500; i++ {
			c.Ints = append(c.Ints, rng.Int63n(200))
		}
		v := exec.NewView()
		v.AddCol(exec.ColKey{Tab: tab}, c)
		return v
	}
	left, right := mk(0), mk(1)
	lkey, rkey := exec.ColKey{Tab: 0}, exec.ColKey{Tab: 1}
	h, err := exec.DrainView(exec.NewHashJoinOp(exec.NewViewScan(left, 0), exec.NewViewScan(right, 0), lkey, rkey, 0))
	if err != nil {
		t.Fatal(err)
	}
	m, err := mergeJoin(left, right, lkey, rkey)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != m.Len() {
		t.Fatalf("hash=%d merge=%d", h.Len(), m.Len())
	}
	count := func(v *exec.View) map[int64]int {
		c := map[int64]int{}
		for _, x := range v.Col(lkey).Ints {
			c[x]++
		}
		return c
	}
	hc, mc := count(h), count(m)
	for k, v := range hc {
		if mc[k] != v {
			t.Fatalf("key %d: hash=%d merge=%d", k, v, mc[k])
		}
	}
	if _, err := mergeJoin(left, right, lkey, exec.ColKey{Tab: 1, Col: 9}); err == nil {
		t.Error("bad right key should error")
	}
}
