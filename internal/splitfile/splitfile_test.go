package splitfile

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nodb/internal/metrics"
	"nodb/internal/scan"
)

func newTestRegistry(t *testing.T, ncols int) (*Registry, string) {
	t.Helper()
	dir := t.TempDir()
	raw := filepath.Join(dir, "table.csv")
	if err := os.WriteFile(raw, []byte("placeholder\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return NewRegistry(filepath.Join(dir, "splits"), raw, ncols, nil), raw
}

func TestLookupRawFallback(t *testing.T) {
	r, raw := newTestRegistry(t, 4)
	src := r.Lookup(2)
	if !src.Raw || src.Path != raw || src.LocalCol != 2 || len(src.Cols) != 4 {
		t.Errorf("Lookup without splits = %+v", src)
	}
}

func TestPlanSplit(t *testing.T) {
	src := Source{Cols: []int{0, 1, 2, 3, 4}, Raw: true}
	p := PlanSplit(src, []int{1, 2})
	if len(p.Sidecars) != 3 { // 0,1,2 all tokenized
		t.Errorf("Sidecars = %v", p.Sidecars)
	}
	if !reflect.DeepEqual(p.RestCols, []int{3, 4}) {
		t.Errorf("RestCols = %v", p.RestCols)
	}
	// Splitting a residual file maps local to original indices.
	src2 := Source{Cols: []int{3, 4, 5}}
	p2 := PlanSplit(src2, []int{1})
	if p2.Sidecars[0] != 3 || p2.Sidecars[1] != 4 {
		t.Errorf("Sidecars = %v", p2.Sidecars)
	}
	if !reflect.DeepEqual(p2.RestCols, []int{5}) {
		t.Errorf("RestCols = %v", p2.RestCols)
	}
}

func TestPlanSplitWholeWidth(t *testing.T) {
	p := PlanSplit(Source{Cols: []int{0, 1}}, []int{1})
	if len(p.RestCols) != 0 {
		t.Errorf("RestCols = %v, want empty", p.RestCols)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	r, _ := newTestRegistry(t, 4)
	src := r.Lookup(1)
	plan := PlanSplit(src, []int{1})
	w, err := r.NewWriter(plan)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][3]string{{"10", "20", "30,40"}, {"11", "21", "31,41"}}
	for _, row := range rows {
		if err := w.WriteRow([][]byte{[]byte(row[0]), []byte(row[1])}, []byte(row[2])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Sidecars registered for columns 0 and 1.
	for col, wantVals := range map[int][]string{0: {"10", "11"}, 1: {"20", "21"}} {
		src := r.Lookup(col)
		if src.Raw || len(src.Cols) != 1 {
			t.Fatalf("col %d: not a sidecar: %+v", col, src)
		}
		data, err := os.ReadFile(src.Path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != wantVals[0]+"\n"+wantVals[1]+"\n" {
			t.Errorf("col %d sidecar = %q", col, data)
		}
	}
	// Residual file serves columns 2 and 3.
	src2 := r.Lookup(3)
	if src2.Raw {
		t.Fatal("col 3 should come from residual file")
	}
	if src2.LocalCol != 1 || !reflect.DeepEqual(src2.Cols, []int{2, 3}) {
		t.Errorf("residual source = %+v", src2)
	}
	data, _ := os.ReadFile(src2.Path)
	if string(data) != "30,40\n31,41\n" {
		t.Errorf("residual = %q", data)
	}
}

func TestResidualScansWithScanner(t *testing.T) {
	// A residual file must be a normal CSV the scanner can process.
	r, _ := newTestRegistry(t, 3)
	plan := PlanSplit(r.Lookup(0), []int{0})
	w, err := r.NewWriter(plan)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRow([][]byte{[]byte("1")}, []byte("2,3"))
	w.WriteRow([][]byte{[]byte("4")}, []byte("5,6"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src := r.Lookup(2)
	sc, err := scan.Open(src.Path, scan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = sc.ScanColumns([]int{src.LocalCol}, func(rowID int64, fields []scan.FieldRef) error {
		got = append(got, string(fields[0].Bytes))
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"3", "6"}) {
		t.Errorf("scanned residual col = %v", got)
	}
}

func TestRecursiveSplit(t *testing.T) {
	// Split 0..1 of a 5-col file, then split the residual again.
	r, _ := newTestRegistry(t, 5)
	w, err := r.NewWriter(PlanSplit(r.Lookup(1), []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRow([][]byte{[]byte("a0"), []byte("a1")}, []byte("a2,a3,a4"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	src := r.Lookup(3)
	if src.Raw || src.LocalCol != 1 {
		t.Fatalf("expected residual source, got %+v", src)
	}
	w2, err := r.NewWriter(PlanSplit(src, []int{src.LocalCol}))
	if err != nil {
		t.Fatal(err)
	}
	w2.WriteRow([][]byte{[]byte("a2"), []byte("a3")}, []byte("a4"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Column 3 now has its own sidecar; column 4 comes from the narrower
	// residual.
	if !r.HasSidecar(3) || !r.HasSidecar(2) {
		t.Error("second split should register sidecars for 2 and 3")
	}
	src4 := r.Lookup(4)
	if src4.Raw || len(src4.Cols) != 1 || src4.Cols[0] != 4 {
		t.Errorf("col 4 source = %+v", src4)
	}
}

func TestWriterFieldCountMismatch(t *testing.T) {
	r, _ := newTestRegistry(t, 3)
	w, err := r.NewWriter(PlanSplit(r.Lookup(1), []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([][]byte{[]byte("only-one")}, nil); err == nil {
		t.Error("mismatched field count should error")
	}
	w.Close()
}

func TestDropRemovesFiles(t *testing.T) {
	r, _ := newTestRegistry(t, 2)
	w, err := r.NewWriter(PlanSplit(r.Lookup(1), []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRow([][]byte{[]byte("1"), []byte("2")}, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for c := range 2 {
		src := r.Lookup(c)
		if src.Raw {
			t.Fatalf("col %d has no sidecar after Close", c)
		}
		if st, err := os.Stat(src.Path); err != nil || st.Size() == 0 {
			t.Fatalf("sidecar %s: %v", src.Path, err)
		}
		paths = append(paths, src.Path)
	}
	r.Drop()
	for _, p := range paths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("file %s survived Drop", p)
		}
	}
	if !r.Lookup(0).Raw {
		t.Error("after Drop, lookups should fall back to raw")
	}
}

func TestCountersAccounting(t *testing.T) {
	var c metrics.Counters
	dir := t.TempDir()
	raw := filepath.Join(dir, "t.csv")
	os.WriteFile(raw, []byte("x\n"), 0o644)
	r := NewRegistry(filepath.Join(dir, "s"), raw, 2, &c)
	w, err := r.NewWriter(PlanSplit(r.Lookup(0), []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRow([][]byte{[]byte("123")}, []byte("456"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.SplitBytesWritten != 8 { // "123\n" + "456\n"
		t.Errorf("SplitBytesWritten = %d, want 8", s.SplitBytesWritten)
	}
}

func TestConcurrentWritersKeepOneSidecar(t *testing.T) {
	r, _ := newTestRegistry(t, 2)
	plan := PlanSplit(r.Lookup(0), []int{0})
	w1, err := r.NewWriter(plan)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := r.NewWriter(plan)
	if err != nil {
		t.Fatal(err)
	}
	w1.WriteRow([][]byte{[]byte("first")}, []byte("t"))
	w2.WriteRow([][]byte{[]byte("second")}, []byte("t"))
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	src := r.Lookup(0)
	data, err := os.ReadFile(src.Path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "first\n" {
		t.Errorf("winner should be the first Close; got %q", data)
	}
}

func TestWriterCloseAfterFailureRemovesFiles(t *testing.T) {
	r, _ := newTestRegistry(t, 3)
	w, err := r.NewWriter(PlanSplit(r.Lookup(1), []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	// Force a failure via field-count mismatch, then Close.
	if err := w.WriteRow([][]byte{[]byte("x")}, nil); err == nil {
		t.Fatal("expected mismatch error")
	}
	// Close after a failed write must not register anything... the writer
	// only marks failure on I/O errors; a mismatch returns early. Write a
	// good row then close normally to confirm the mismatch didn't corrupt
	// state.
	if err := w.WriteRow([][]byte{[]byte("1"), []byte("2")}, []byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src := r.Lookup(0)
	data, _ := os.ReadFile(src.Path)
	if string(data) != "1\n" {
		t.Errorf("sidecar = %q", data)
	}
}

// TestWriterAbortRemovesFiles: a load whose row feed stopped early aborts
// its writer, which removes the partial files and registers nothing.
func TestWriterAbortRemovesFiles(t *testing.T) {
	r, _ := newTestRegistry(t, 3)
	w, err := r.NewWriter(PlanSplit(r.Lookup(1), []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([][]byte{[]byte("1"), []byte("2")}, []byte("3")); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	for _, p := range w.paths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("aborted file %s survived", p)
		}
	}
	for c := range 3 {
		if !r.Lookup(c).Raw {
			t.Errorf("col %d registered by an aborted writer", c)
		}
	}
}

func TestLookupPrefersNarrowestResidual(t *testing.T) {
	r, _ := newTestRegistry(t, 6)
	// First split: sidecars 0..1, residual {2,3,4,5}.
	w, _ := r.NewWriter(PlanSplit(r.Lookup(1), []int{1}))
	w.WriteRow([][]byte{[]byte("a"), []byte("b")}, []byte("c,d,e,f"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Second split of the residual: sidecars 2..3, residual {4,5}.
	src := r.Lookup(3)
	w2, _ := r.NewWriter(PlanSplit(src, []int{src.LocalCol}))
	w2.WriteRow([][]byte{[]byte("c"), []byte("d")}, []byte("e,f"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got := r.Lookup(5)
	if got.Raw || len(got.Cols) != 2 || got.LocalCol != 1 {
		t.Errorf("col 5 should come from the 2-wide residual: %+v", got)
	}
}

func TestSanitize(t *testing.T) {
	if s := sanitize("weird name!.csv"); s != "weird_name_.csv" {
		t.Errorf("sanitize = %q", s)
	}
}
