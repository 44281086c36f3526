package posmap

import (
	"slices"
	"sync"
	"testing"

	"nodb/internal/metrics"
)

func TestRecordLookup(t *testing.T) {
	m := New(0, nil)
	m.Record(2, 10, 123)
	m.Record(2, 11, 456)
	if off, ok := m.Lookup(2, 10); !ok || off != 123 {
		t.Errorf("Lookup = %d, %v", off, ok)
	}
	if _, ok := m.Lookup(2, 12); ok {
		t.Error("absent row should miss")
	}
	if _, ok := m.Lookup(3, 10); ok {
		t.Error("absent col should miss")
	}
}

func TestRecordOverwrite(t *testing.T) {
	m := New(0, nil)
	m.Record(0, 5, 100)
	m.Record(0, 5, 200)
	if off, _ := m.Lookup(0, 5); off != 200 {
		t.Errorf("overwrite failed: %d", off)
	}
	if m.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", m.Entries())
	}
}

func TestRecordOutOfOrder(t *testing.T) {
	m := New(0, nil)
	m.Record(1, 30, 300)
	m.Record(1, 10, 100)
	m.Record(1, 20, 200)
	rows, offs := m.Pairs(1)
	if len(rows) != 3 || rows[0] != 10 || rows[1] != 20 || rows[2] != 30 {
		t.Fatalf("rows = %v", rows)
	}
	if offs[0] != 100 || offs[1] != 200 || offs[2] != 300 {
		t.Errorf("offs = %v", offs)
	}
}

func TestRecordRun(t *testing.T) {
	m := New(0, nil)
	m.RecordRun(0, 100, []int64{10, 20, 30})
	if off, ok := m.Lookup(0, 101); !ok || off != 20 {
		t.Errorf("run lookup = %d, %v", off, ok)
	}
	if !m.Covers(0, 100, 103) {
		t.Error("run should cover [100,103)")
	}
	if m.Covers(0, 100, 104) {
		t.Error("should not cover beyond run")
	}
	// Appending a second adjacent run extends coverage.
	m.RecordRun(0, 103, []int64{40})
	if !m.Covers(0, 100, 104) {
		t.Error("adjacent run should extend coverage")
	}
}

func TestRecordRunOutOfOrderFallback(t *testing.T) {
	m := New(0, nil)
	m.RecordRun(0, 100, []int64{1, 2})
	m.RecordRun(0, 50, []int64{3, 4}) // before existing → fallback path
	if off, ok := m.Lookup(0, 50); !ok || off != 3 {
		t.Errorf("fallback lookup = %d, %v", off, ok)
	}
	if off, ok := m.Lookup(0, 101); !ok || off != 2 {
		t.Errorf("original entries damaged: %d, %v", off, ok)
	}
	if m.Entries() != 4 {
		t.Errorf("Entries = %d, want 4", m.Entries())
	}
}

// TestRecordRunMatchesRecord: a bulk install into an empty column leaves
// the same map as recording the entries one by one.
func TestRecordRunMatchesRecord(t *testing.T) {
	offs := make([]int64, 5000)
	for i := range offs {
		offs[i] = int64(i)*37 + 3
	}
	bulk, single := New(0, nil), New(0, nil)
	bulk.RecordRun(4, 200, offs)
	for i, off := range offs {
		single.Record(4, 200+int64(i), off)
	}
	offs[0] = -1 // the run was copied, not adopted
	br, bo := bulk.Pairs(4)
	sr, so := single.Pairs(4)
	if !slices.Equal(br, sr) || !slices.Equal(bo, so) {
		t.Fatal("RecordRun and per-entry Record disagree on Pairs")
	}
	if bo[0] != 3 {
		t.Fatalf("first offset = %d: RecordRun must copy its input", bo[0])
	}
	for _, r := range [][2]int64{{200, 5200}, {199, 201}, {5199, 5201}, {1000, 1001}} {
		if bulk.Covers(4, r[0], r[1]) != single.Covers(4, r[0], r[1]) {
			t.Fatalf("Covers(%d,%d) disagrees", r[0], r[1])
		}
	}
	if bulk.MemSize() != single.MemSize() || bulk.MemSize() != 5000*16 {
		t.Fatalf("MemSize bulk=%d single=%d, want %d", bulk.MemSize(), single.MemSize(), 5000*16)
	}
}

// TestRecordRunBudgetCut: a run that would cross the budget is cut at it,
// and later runs add nothing.
func TestRecordRunBudgetCut(t *testing.T) {
	m := New(10*16, nil)
	m.RecordRun(0, 0, []int64{0, 1, 2, 3})
	m.RecordRun(1, 0, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8})
	if got := m.MemSize(); got != 10*16 {
		t.Fatalf("MemSize = %d, want exactly the budget %d", got, 10*16)
	}
	rows, _ := m.Pairs(1)
	if len(rows) != 6 || rows[5] != 5 {
		t.Fatalf("cut run rows = %v, want the first 6", rows)
	}
	if !m.Covers(1, 0, 6) || m.Covers(1, 0, 7) {
		t.Fatal("coverage must end where the run was cut")
	}
	if !m.Full() {
		t.Fatal("map should report full at the budget")
	}
	m.RecordRun(2, 0, []int64{1})
	if m.Entries() != 10 || m.MemSize() != 10*16 {
		t.Fatalf("a full map accepted more: entries=%d bytes=%d", m.Entries(), m.MemSize())
	}
}

// TestRecordRunOverlapMerges: a run over rows the column already holds
// folds in with newest-wins semantics and exact byte accounting.
func TestRecordRunOverlapMerges(t *testing.T) {
	m := New(0, nil)
	for r := int64(0); r < 100; r += 10 {
		m.Record(0, r, r)
	}
	run := make([]int64, 100)
	for i := range run {
		run[i] = int64(i) + 1000
	}
	m.RecordRun(0, 0, run)
	rows, offs := m.Pairs(0)
	if len(rows) != 100 || offs[0] != 1000 || offs[50] != 1050 {
		t.Fatalf("merged pairs wrong: %d rows, offs[0]=%d offs[50]=%d", len(rows), offs[0], offs[50])
	}
	if m.MemSize() != 100*16 || !m.Covers(0, 0, 100) {
		t.Fatalf("MemSize = %d, covers=%v", m.MemSize(), m.Covers(0, 0, 100))
	}
}

// TestRecordInOrderAllocFree: the sparse loaders record value by value;
// an in-order append must not allocate beyond amortized slice growth.
func TestRecordInOrderAllocFree(t *testing.T) {
	m := New(1<<30, nil)
	row := int64(0)
	m.Record(0, row, 0)
	allocs := testing.AllocsPerRun(10000, func() {
		row++
		m.Record(0, row, row*8)
	})
	if allocs != 0 {
		t.Fatalf("in-order Record allocates %.1f times per call, want 0", allocs)
	}
}

func TestBestAnchor(t *testing.T) {
	m := New(0, nil)
	m.Record(0, 7, 70)  // row start
	m.Record(3, 7, 85)  // attribute 3
	m.Record(5, 8, 120) // different row
	col, off, ok := m.BestAnchor(4, 7)
	if !ok || col != 3 || off != 85 {
		t.Errorf("BestAnchor(4,7) = %d, %d, %v; want 3, 85", col, off, ok)
	}
	col, off, ok = m.BestAnchor(2, 7)
	if !ok || col != 0 || off != 70 {
		t.Errorf("BestAnchor(2,7) = %d, %d, %v; want 0, 70", col, off, ok)
	}
	if _, _, ok := m.BestAnchor(4, 9); ok {
		t.Error("unknown row should have no anchor")
	}
	// Anchor at exactly the target column.
	col, off, ok = m.BestAnchor(3, 7)
	if !ok || col != 3 || off != 85 {
		t.Errorf("BestAnchor(3,7) = %d, %d, %v", col, off, ok)
	}
}

func TestBudget(t *testing.T) {
	m := New(32, nil) // room for 2 entries of 16 bytes
	m.Record(0, 1, 10)
	m.Record(0, 2, 20)
	if !m.Full() {
		t.Fatal("map should be full after 2 entries at 32-byte budget")
	}
	m.Record(0, 3, 30) // dropped
	if _, ok := m.Lookup(0, 3); ok {
		t.Error("record past budget should be dropped")
	}
	if m.Entries() != 2 {
		t.Errorf("Entries = %d, want 2", m.Entries())
	}
}

func TestDrop(t *testing.T) {
	m := New(0, nil)
	m.Record(1, 1, 1)
	m.Drop()
	if m.Entries() != 0 || m.MemSize() != 0 {
		t.Error("Drop should clear everything")
	}
	if _, ok := m.Lookup(1, 1); ok {
		t.Error("lookup after drop should miss")
	}
}

func TestCoveredCols(t *testing.T) {
	m := New(0, nil)
	m.Record(5, 0, 1)
	m.Record(2, 0, 1)
	got := m.CoveredCols()
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("CoveredCols = %v", got)
	}
}

func TestCounters(t *testing.T) {
	var c metrics.Counters
	m := New(0, &c)
	m.Record(0, 1, 1)
	m.Lookup(0, 1)
	m.Lookup(0, 2)
	s := c.Snapshot()
	if s.PosMapHits != 1 || s.PosMapMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", s.PosMapHits, s.PosMapMisses)
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New(0, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * 1000)
			for i := int64(0); i < 500; i++ {
				m.Record(w, base+i, base+i*8)
				m.Lookup(w, base+i)
				m.BestAnchor(w, base+i)
			}
		}(w)
	}
	wg.Wait()
	if m.Entries() != 2000 {
		t.Errorf("Entries = %d, want 2000", m.Entries())
	}
}

func TestPairsCopies(t *testing.T) {
	m := New(0, nil)
	m.Record(0, 1, 11)
	rows, _ := m.Pairs(0)
	rows[0] = 999 // mutate the copy
	if off, ok := m.Lookup(0, 1); !ok || off != 11 {
		t.Error("Pairs must return copies")
	}
	r, o := m.Pairs(7)
	if r != nil || o != nil {
		t.Error("Pairs of unknown col should be nil")
	}
}

func BenchmarkRecordAscending(b *testing.B) {
	m := New(1<<30, nil)
	for i := 0; i < b.N; i++ {
		m.Record(0, int64(i), int64(i*8))
	}
}

func BenchmarkLookup(b *testing.B) {
	m := New(1<<30, nil)
	for i := int64(0); i < 1e6; i++ {
		m.Record(0, i, i*8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(0, int64(i)%1e6)
	}
}

// TestRecordInterleavedBulk drives the pending-merge path hard: a
// selective pass records scattered rows, a wide pass then records every
// row (the sequence that used to trigger an O(n) memmove per record).
// Lookups, coverage and serialization must match a reference map.
func TestRecordInterleavedBulk(t *testing.T) {
	m := New(64<<20, nil)
	ref := map[int64]int64{}
	const n = 120_000
	for r := int64(0); r < n; r += 3 { // selective pass, in order
		m.Record(0, r, r*10)
		ref[r] = r * 10
	}
	for r := int64(0); r < n; r++ { // wide pass, in order from row 0
		m.Record(0, r, r*10+1)
		ref[r] = r*10 + 1
	}
	if got := m.Entries(); got != n {
		t.Fatalf("Entries = %d, want %d", got, n)
	}
	for _, r := range []int64{0, 1, 2, 3, n / 2, n - 1} {
		off, ok := m.Lookup(0, r)
		if !ok || off != ref[r] {
			t.Fatalf("Lookup(%d) = %d,%v want %d", r, off, ok, ref[r])
		}
	}
	if !m.Covers(0, 0, n) {
		t.Fatal("full range should be covered after the wide pass")
	}
	rows, offs := m.Pairs(0)
	if int64(len(rows)) != n {
		t.Fatalf("Pairs len = %d, want %d", len(rows), n)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] <= rows[i-1] {
			t.Fatalf("rows not ascending at %d", i)
		}
	}
	for i, r := range rows {
		if offs[i] != ref[r] {
			t.Fatalf("row %d offset %d, want %d", r, offs[i], ref[r])
		}
	}
	// Byte accounting settles to exactly 16 per unique entry.
	if got := m.MemSize(); got != n*16 {
		t.Fatalf("MemSize = %d, want %d", got, n*16)
	}
}

// TestRecordPendingVisibleToReaders: a handful of out-of-order records
// below the flush threshold must still be visible through every reader.
func TestRecordPendingVisibleToReaders(t *testing.T) {
	m := New(0, nil)
	m.Record(2, 100, 1000)
	m.Record(2, 5, 50)   // out of order -> pending
	m.Record(2, 40, 400) // still pending
	if off, ok := m.Lookup(2, 5); !ok || off != 50 {
		t.Fatalf("Lookup(5) = %d,%v", off, ok)
	}
	if !m.Covers(2, 40, 41) {
		t.Fatal("pending row 40 not covered")
	}
	if got := m.Entries(); got != 3 {
		t.Fatalf("Entries = %d, want 3", got)
	}
	cols := m.Columns()
	if pair, ok := cols[2]; !ok || len(pair[0]) != 3 || pair[0][0] != 5 {
		t.Fatalf("Columns() = %+v, want merged view", cols)
	}
	// Duplicate of an existing row via the pending path: newest wins and
	// the duplicate's bytes are released on merge.
	m.Record(2, 100, 1001)
	m.Record(2, 5, 51)
	if off, _ := m.Lookup(2, 100); off != 1001 {
		t.Fatalf("overwrite via pending lost: %d", off)
	}
	if off, _ := m.Lookup(2, 5); off != 51 {
		t.Fatalf("overwrite via pending lost: %d", off)
	}
	if got := m.MemSize(); got != 3*16 {
		t.Fatalf("MemSize = %d, want %d", got, 3*16)
	}
}
