package posmap

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nodb/internal/metrics"
)

func TestRecordLookup(t *testing.T) {
	m := New(0, nil)
	m.RecordRows(2, []int64{10, 11}, []int64{123, 456})
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
	m.RecordRun(0, 5, []int64{100})
	m.RecordRun(0, 5, []int64{200})
	if off, _ := m.Lookup(0, 5); off != 200 {
		t.Errorf("overwrite failed: %d", off)
	}
	if m.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", m.Entries())
	}
}

func TestRecordOutOfOrder(t *testing.T) {
	m := New(0, nil)
	m.RecordRun(1, 30, []int64{300})
	m.RecordRun(1, 10, []int64{100})
	m.RecordRun(1, 20, []int64{200})
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
	m.RecordRun(0, 50, []int64{3, 4}) // before the existing rows
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
// the same map as recording the entries one by one, and as one
// RecordRows of the same rows.
func TestRecordRunMatchesRecord(t *testing.T) {
	offs := make([]int64, 5000)
	for i := range offs {
		offs[i] = int64(i)*37 + 3
	}
	bulk, single, rowsMap := New(0, nil), New(0, nil), New(0, nil)
	bulk.RecordRun(4, 200, offs)
	rows := make([]int64, len(offs))
	for i, off := range offs {
		single.RecordRun(4, 200+int64(i), []int64{off})
		rows[i] = 200 + int64(i)
	}
	rowsMap.RecordRows(4, rows, offs)
	offs[0] = -1 // the run was copied, not adopted
	br, bo := bulk.Pairs(4)
	for _, other := range []*Map{single, rowsMap} {
		sr, so := other.Pairs(4)
		if !slices.Equal(br, sr) || !slices.Equal(bo, so) {
			t.Fatal("RecordRun, per-entry RecordRun and RecordRows disagree on Pairs")
		}
	}
	if bo[0] != 3 {
		t.Fatalf("first offset = %d: RecordRun must copy its input", bo[0])
	}
	for _, r := range [][2]int64{{200, 5200}, {199, 201}, {5199, 5201}, {1000, 1001}} {
		if bulk.Covers(4, r[0], r[1]) != single.Covers(4, r[0], r[1]) {
			t.Fatalf("Covers(%d,%d) disagrees", r[0], r[1])
		}
	}
	// Rows 200..5199 fill blocks 0..5, and every map uses 5 column slots
	// (for col 4), 6 index slots and one coverage interval. Each seals the
	// blocks it covers from their first row, 1..4 whole and 5's first 80
	// rows, whether one write or many left them covered.
	want := int64(5*8+6*8+narrowCost+intervalCost) + 4*sealedCost(blockRows) + sealedCost(80)
	for name, m := range map[string]*Map{"bulk": bulk, "single": single, "rows": rowsMap} {
		if got := m.MemSize(); got != want {
			t.Fatalf("%s MemSize = %d, want %d", name, got, want)
		}
	}
}

// TestRecordRunBudgetCut: a run is cut at the first block that does not
// fit the budget, and later growth adds nothing; writes into blocks
// already allocated still land.
func TestRecordRunBudgetCut(t *testing.T) {
	// Column 0: one column slot, two index slots, two sealed blocks and
	// one coverage interval.
	col0 := 8 + 2*8 + 2*sealedCost(blockRows) + intervalCost
	// Column 1 (3000 rows): a second column slot, two index slots, two
	// sealed blocks and an interval fit; the tail block (952 rows) does
	// not, and neither does a third column of one row.
	full := col0 + 8 + 2*8 + 2*sealedCost(blockRows) + intervalCost
	budget := full + 8 + 8 + sealedCost(1) + intervalCost - 1
	m := New(budget, nil)
	m.RecordRun(0, 0, seqOffs(2*blockRows, 0))
	if got := m.MemSize(); got != col0 {
		t.Fatalf("MemSize = %d, want %d", got, col0)
	}
	m.RecordRun(1, 0, seqOffs(3000, 0))
	if got := m.MemSize(); got != full {
		t.Fatalf("MemSize = %d, want %d", got, full)
	}
	rows, _ := m.Pairs(1)
	if len(rows) != 2*blockRows || rows[len(rows)-1] != 2*blockRows-1 {
		t.Fatalf("cut run kept %d rows, want the first %d", len(rows), 2*blockRows)
	}
	if !m.Covers(1, 0, 2*blockRows) || m.Covers(1, 0, 2*blockRows+1) {
		t.Fatal("coverage must end where the run was cut")
	}
	m.RecordRun(2, 0, []int64{1})
	if m.Entries() != 4*blockRows || m.MemSize() != full {
		t.Fatalf("a full map accepted more: entries=%d bytes=%d", m.Entries(), m.MemSize())
	}
	m.RecordRun(0, 5, []int64{77})
	if off, ok := m.Lookup(0, 5); !ok || off != 77 || m.MemSize() != full {
		t.Fatalf("overwrite in a full map: %d,%v bytes=%d", off, ok, m.MemSize())
	}
}

// sealedCost is the bytes of a sealed block of k rows.
func sealedCost(k int) int64 { return sealedHead + 2*int64(k) }

// seqOffs returns n ascending offsets from base, 37 bytes apart.
func seqOffs(n int, base int64) []int64 {
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = base + int64(i)*37
	}
	return offs
}

// TestRecordRunOverlapMerges: a run over rows the column already holds
// overwrites them (newest wins) and allocates nothing more.
func TestRecordRunOverlapMerges(t *testing.T) {
	m := New(0, nil)
	var rows []int64
	for r := int64(0); r < 100; r += 10 {
		rows = append(rows, r)
	}
	m.RecordRows(0, rows, rows)
	run := make([]int64, 100)
	for i := range run {
		run[i] = int64(i) + 1000
	}
	m.RecordRun(0, 0, run)
	rows, offs := m.Pairs(0)
	if len(rows) != 100 || offs[0] != 1000 || offs[50] != 1050 {
		t.Fatalf("merged pairs wrong: %d rows, offs[0]=%d offs[50]=%d", len(rows), offs[0], offs[50])
	}
	// One column slot, one index slot, one block, sealed by the run that
	// left its first 100 rows covered, and the one interval the run
	// merged the ten scattered rows' intervals into.
	if m.MemSize() != 8+8+sealedCost(100)+intervalCost || !m.Covers(0, 0, 100) {
		t.Fatalf("MemSize = %d, covers=%v", m.MemSize(), m.Covers(0, 0, 100))
	}
}

// TestRecordInOrderAllocFree: an in-order append into a block that
// exists, one row per call, widens the column's coverage in place and
// allocates nothing. Row 0 stays unrecorded, so the block stays narrow.
func TestRecordInOrderAllocFree(t *testing.T) {
	m := New(1<<30, nil)
	row := int64(1)
	rows, offs := []int64{row}, []int64{8}
	m.RecordRows(0, rows, offs)
	allocs := testing.AllocsPerRun(blockRows-10, func() {
		row++
		rows[0], offs[0] = row, row*8
		m.RecordRows(0, rows, offs)
	})
	if allocs != 0 {
		t.Fatalf("in-order RecordRows allocates %.1f times per call, want 0", allocs)
	}
}

// TestBudget: the budget caps allocations, not entries. Row 1's write
// takes a column slot, an index slot, a block and a coverage interval,
// and leaves exactly the room of a wide escape and three more intervals.
// Row 2000 needs a new block and is dropped; row 3 lands in the block
// already allocated, at the cost of its interval (rows 1 and 3 are no run
// from the block's first row, so the block stays narrow).
func TestBudget(t *testing.T) {
	const used = 8 + 8 + narrowCost + intervalCost
	m := New(used+4*blockRows+3*intervalCost, nil)
	m.RecordRun(0, 1, []int64{10})
	if m.MemSize() != used {
		t.Fatalf("MemSize = %d, want %d", m.MemSize(), used)
	}
	m.RecordRun(0, 2000, []int64{20})
	if _, ok := m.Lookup(0, 2000); ok {
		t.Error("record past budget should be dropped")
	}
	m.RecordRun(0, 3, []int64{5})
	if off, ok := m.Lookup(0, 3); !ok || off != 5 {
		t.Errorf("record into an allocated slot = %d, %v", off, ok)
	}
	if m.Entries() != 2 || m.MemSize() != used+intervalCost {
		t.Errorf("Entries = %d, MemSize = %d, want 2, %d", m.Entries(), m.MemSize(), used+intervalCost)
	}
	// A run the budget cuts does not end a RecordRows: row 7, after the
	// dropped row 2001, still lands in the block already allocated.
	m.RecordRows(0, []int64{5, 2001, 7}, []int64{50, 60, 70})
	if off, ok := m.Lookup(0, 7); !ok || off != 70 {
		t.Errorf("row after a cut run = %d, %v", off, ok)
	}
	if _, ok := m.Lookup(0, 2001); ok || m.Entries() != 4 || m.MemSize() != used+3*intervalCost {
		t.Errorf("Entries = %d, MemSize = %d, want 4, %d", m.Entries(), m.MemSize(), used+3*intervalCost)
	}
}

func TestDrop(t *testing.T) {
	m := New(0, nil)
	m.RecordRun(1, 1, []int64{1})
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
	m.RecordRun(5, 0, []int64{1})
	m.RecordRun(2, 0, []int64{1})
	got := m.CoveredCols()
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("CoveredCols = %v", got)
	}
}

func TestCounters(t *testing.T) {
	var c metrics.Counters
	m := New(0, &c)
	m.RecordRun(0, 1, []int64{1})
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
				m.RecordRun(w, base+i, []int64{base + i*8})
				m.Lookup(w, base+i)
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
	m.RecordRun(0, 1, []int64{11})
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

// BenchmarkRecordAscending records a selective pass' positions: one
// RecordRows per 1 000-row portion, every tenth row, as a partial pass
// does when a portion ends.
func BenchmarkRecordAscending(b *testing.B) {
	rows, offs := make([]int64, 100), make([]int64, 100)
	m := New(1<<30, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rows[j] = int64(i)*1000 + int64(j)*10
			offs[j] = rows[j] * 8
		}
		m.RecordRows(0, rows, offs)
	}
}

// BenchmarkRecordRowByRow records a column's positions one row per
// RecordRun, in row order: each row after a block's first extends the
// sealed block in place, but the flat line a block's first row seals on
// holds only so many rows, so each block unseals and reseals once. It
// pins what a caller pays for not batching its rows into runs.
func BenchmarkRecordRowByRow(b *testing.B) {
	offs := seqOffs(4*blockRows, 0)
	b.ReportAllocs()
	for b.Loop() {
		m := New(0, nil)
		for r, off := range offs {
			m.RecordRun(0, int64(r), []int64{off})
		}
	}
}

// BenchmarkRecordRunColumn installs three 300 000-row columns the way a
// cold column load does.
func BenchmarkRecordRunColumn(b *testing.B) {
	offs := seqOffs(300_000, 0)
	b.ReportAllocs()
	for b.Loop() {
		m := New(0, nil)
		for c := range 3 {
			m.RecordRun(c, 0, offs)
		}
	}
}

// BenchmarkPairsColumn decodes a 300 000-row column, as a positional load
// does for its anchor.
func BenchmarkPairsColumn(b *testing.B) {
	m := New(0, nil)
	m.RecordRun(0, 0, seqOffs(300_000, 0))
	b.ReportAllocs()
	for b.Loop() {
		m.Pairs(0)
	}
}

func BenchmarkLookup(b *testing.B) {
	m := New(1<<30, nil)
	m.RecordRun(0, 0, seqOffs(1e6, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(0, int64(i)%1e6)
	}
}

// TestRecordInterleavedBulk: a selective pass records scattered rows, a
// wide pass then records every row, a 1 000-row portion at a time (the
// sequence that once triggered an O(n) memmove per record). Lookups,
// coverage and serialization must match a reference map.
func TestRecordInterleavedBulk(t *testing.T) {
	m := New(64<<20, nil)
	ref := map[int64]int64{}
	const n = 120_000
	var rows, offs []int64
	for r := int64(0); r < n; r += 3 { // selective pass, in order
		rows, offs = append(rows, r), append(offs, r*10)
		ref[r] = r * 10
	}
	m.RecordRows(0, rows, offs)
	for lo := int64(0); lo < n; lo += 1000 { // wide pass, in order from row 0
		rows, offs = rows[:0], offs[:0]
		for r := lo; r < lo+1000; r++ {
			rows, offs = append(rows, r), append(offs, r*10+1)
			ref[r] = r*10 + 1
		}
		m.RecordRows(0, rows, offs)
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
	rows, offs = m.Pairs(0)
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
	// One column slot, 118 index slots in use and 118 blocks, each sealed
	// once the wide pass covered it: 117 whole and the last's 192 rows,
	// and the one interval the wide pass left.
	if got, want := m.MemSize(), int64(8+118*8+intervalCost)+117*sealedCost(blockRows)+sealedCost(n-117*blockRows); got != want {
		t.Fatalf("MemSize = %d, want %d", got, want)
	}
}

// TestRecordOutOfOrderVisibleToReaders: out-of-order records are visible
// through every reader at once.
func TestRecordOutOfOrderVisibleToReaders(t *testing.T) {
	m := New(0, nil)
	m.RecordRun(2, 100, []int64{1000})
	m.RecordRun(2, 5, []int64{50})
	m.RecordRun(2, 40, []int64{400})
	if off, ok := m.Lookup(2, 5); !ok || off != 50 {
		t.Fatalf("Lookup(5) = %d,%v", off, ok)
	}
	if !m.Covers(2, 40, 41) {
		t.Fatal("row 40 not covered")
	}
	if got := m.Entries(); got != 3 {
		t.Fatalf("Entries = %d, want 3", got)
	}
	if rows, _ := m.Pairs(2); !slices.Equal(rows, []int64{5, 40, 100}) {
		t.Fatalf("Pairs rows = %v, want them in order", rows)
	}
	// Overwrites: newest wins and allocates nothing.
	m.RecordRows(2, []int64{5, 100}, []int64{51, 1001})
	if off, _ := m.Lookup(2, 100); off != 1001 {
		t.Fatalf("overwrite lost: %d", off)
	}
	if off, _ := m.Lookup(2, 5); off != 51 {
		t.Fatalf("overwrite lost: %d", off)
	}
	// Three column slots (col 2), one index slot, one block and the
	// three rows' intervals.
	if got, want := m.MemSize(), int64(3*8+8+narrowCost+3*intervalCost); got != want {
		t.Fatalf("MemSize = %d, want %d", got, want)
	}
}

// TestInstallRun: a Run installs the same positions, coverage and bytes as
// RecordRun of the same offsets, whether it was sized up front or grown
// by a lone writer, and for offsets past 4 GiB; it merges into a column
// that has entries, keeps an offset far off its block's line in an
// unsealed block, and is cut at the budget like RecordRun.
func TestInstallRun(t *testing.T) {
	const n = 3000
	narrow, far := seqOffs(n, 7), make([]int64, n)
	for i := range far {
		far[i] = int64(i) << 22 // past 4 GiB from row 1024 on
	}
	ref := func(offs []int64) *Map {
		m := New(0, nil)
		m.RecordRun(0, 0, offs)
		return m
	}
	for _, tc := range []struct {
		name  string
		sized bool
		offs  []int64
	}{
		{"sized", true, narrow},
		{"grown", false, narrow},
		{"past 4 GiB", true, far},
	} {
		m, want := New(0, nil), ref(tc.offs)
		m.InstallRun(0, runOf(tc.sized, tc.offs), n)
		gr, gw := m.Pairs(0)
		wr, ww := want.Pairs(0)
		if !slices.Equal(gr, wr) || !slices.Equal(gw, ww) || !m.Covers(0, 0, n) || m.Covers(0, 0, n+1) {
			t.Fatalf("%s: positions or coverage differ from RecordRun's", tc.name)
		}
		if m.MemSize() != want.MemSize() {
			t.Fatalf("%s: MemSize = %d, RecordRun's = %d", tc.name, m.MemSize(), want.MemSize())
		}
		if got, want := m.MemSize(), 8+3*8+2*sealedCost(blockRows)+sealedCost(n-2*blockRows)+intervalCost; got != want {
			t.Fatalf("%s: MemSize = %d, want %d: every block sealed", tc.name, got, want)
		}
	}

	m := New(0, nil)
	m.RecordRows(0, []int64{10, n + 5}, []int64{5, 9})
	m.InstallRun(0, runOf(true, narrow), n)
	if off, _ := m.Lookup(0, 10); off != narrow[10] || m.Entries() != n+1 {
		t.Fatalf("merge: Lookup(10) = %d, Entries = %d; want %d, %d", off, m.Entries(), narrow[10], n+1)
	}

	m = New(0, nil)
	odd := slices.Clone(narrow)
	odd[5] = 1 << 33 // 8 GiB off block 0's line
	m.InstallRun(0, runOf(true, odd), n)
	if off, ok := m.Lookup(0, 5); !ok || off != 1<<33 {
		t.Fatalf("Lookup(5) = %d,%v, want %d", off, ok, int64(1)<<33)
	}
	if got, want := m.MemSize(), 8+3*8+narrowCost+4*blockRows+sealedCost(blockRows)+sealedCost(n-2*blockRows)+intervalCost; got != want {
		t.Fatalf("MemSize = %d, want %d: block 0 wide, the others sealed", got, want)
	}

	budget := 8 + 8 + sealedCost(blockRows) + 100
	m = New(budget, nil)
	m.InstallRun(0, runOf(true, narrow), n)
	if rows, _ := m.Pairs(0); len(rows) != blockRows || m.MemSize() > budget {
		t.Fatalf("over budget: %d rows, %d bytes; want the first block", len(rows), m.MemSize())
	}
}

// runOf returns a run of offs written by one writer, sized up front or
// grown.
func runOf(sized bool, offs []int64) *Run {
	r := NewRun(0)
	if sized {
		r = NewRun(int64(len(offs)))
	}
	w := r.Writer()
	for i, off := range offs {
		w.Set(int64(i), off)
	}
	w.Flush()
	return r
}

// TestRunConcurrentSet: workers writing disjoint portions of a sized
// run need no lock; the blocks split at the portions' seams are sealed
// on install, so the run holds the bytes of RecordRun's, and Offsets
// decodes the same positions.
func TestRunConcurrentSet(t *testing.T) {
	const n = 20_000
	seams := []int64{0, 700, 5000, 9216, 15_001, n}
	write := func() *Run {
		r := NewRun(n)
		var wg sync.WaitGroup
		for p := range len(seams) - 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := r.Writer()
				for row := seams[p]; row < seams[p+1]; row++ {
					w.Set(row, row*37+3)
				}
				w.Flush()
			}()
		}
		wg.Wait()
		return r
	}
	m, want := New(0, nil), New(0, nil)
	m.InstallRun(1, write(), n)
	want.RecordRun(1, 0, seqOffs(n, 3))
	for _, row := range []int64{0, 1, 699, 700, 1023, 1024, 5000, 9215, 9216, 15_000, n - 1} {
		if off, ok := m.Lookup(1, row); !ok || off != row*37+3 {
			t.Fatalf("Lookup(%d) = %d,%v", row, off, ok)
		}
	}
	if m.MemSize() != want.MemSize() {
		t.Fatalf("MemSize = %d, RecordRun's = %d", m.MemSize(), want.MemSize())
	}
	if offs := write().Offsets(n); !slices.Equal(offs, seqOffs(n, 3)) {
		t.Fatal("Offsets of the run differ from the positions set")
	}
}

// TestLoadColumn: a snapshot's pairs restore the positions and the bytes
// of the map they came from, sealed where it was sealed; a column that has
// entries, and pairs out of order or negative, are left alone.
func TestLoadColumn(t *testing.T) {
	src := New(0, nil)
	src.RecordRun(0, 0, seqOffs(3000, 5))
	src.RecordRun(0, 4000, []int64{9}) // alone in its block, narrow
	rows, offs := src.Pairs(0)
	m := New(0, nil)
	m.LoadColumn(0, rows, offs)
	gr, gw := m.Pairs(0)
	if !slices.Equal(gr, rows) || !slices.Equal(gw, offs) || m.MemSize() != src.MemSize() {
		t.Fatalf("restored %d pairs in %d bytes, want %d in %d", len(gr), m.MemSize(), len(rows), src.MemSize())
	}
	if got, want := m.MemSize(), 8+4*8+2*sealedCost(blockRows)+sealedCost(3000-2*blockRows)+narrowCost+2*intervalCost; got != want {
		t.Fatalf("MemSize = %d, want %d", got, want)
	}
	m.LoadColumn(0, []int64{7000}, []int64{1})
	m.LoadColumn(1, []int64{5, 3}, []int64{1, 2})
	m.LoadColumn(2, []int64{5}, []int64{-1})
	if _, ok := m.Lookup(0, 7000); ok || !slices.Equal(m.CoveredCols(), []int{0}) {
		t.Fatalf("LoadColumn installed into a recorded column or from bad pairs: %v", m.CoveredCols())
	}
}

// TestLoadColumnScatteredCost: restoring a scattered column, two rows in
// every three, costs about one allocation per run. A sealing check that
// listed each touched block's gaps took tens per run, growing with the
// runs already in the block.
func TestLoadColumnScatteredCost(t *testing.T) {
	var rows, offs []int64
	for r := int64(0); r < 30_000; r += 3 {
		rows, offs = append(rows, r, r+1), append(offs, r*40, r*40+40)
	}
	runs := float64(len(rows) / 2)
	allocs := testing.AllocsPerRun(3, func() {
		New(0, nil).LoadColumn(0, rows, offs)
	})
	if allocs > 1.5*runs {
		t.Fatalf("LoadColumn of %.0f runs allocated %.0f times, want about one per run", runs, allocs)
	}
}

// TestMemSizeMatchesHeap: MemSize is the heap the map really holds. One
// million entries are installed the way column loads install them, and
// MemSize must be within 10 % of the live-heap growth.
func TestMemSizeMatchesHeap(t *testing.T) {
	const n = 1_000_000
	offs := seqOffs(n, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(0, nil)
	for start := 0; start < n; start += 4096 {
		m.RecordRun(0, int64(start), offs[start:min(start+4096, n)])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(offs)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	got := m.MemSize()
	if d := got - heap; d > heap/10 || -d > heap/10 {
		t.Fatalf("MemSize = %d, live heap grew by %d: off by more than 10 %%", got, heap)
	}
	if got >= 3*n {
		t.Fatalf("MemSize = %d for %d entries: want about 2 B each", got, n)
	}
}

// TestMemSizeScatteredMatchesHeap: a selective pass's scattered rows, one
// coverage interval each, cost what the heap grows by, within 10 %: the
// intervals are charged, not only the blocks.
func TestMemSizeScatteredMatchesHeap(t *testing.T) {
	const n = 500_000
	rows := make([]int64, 0, n/10)
	offs := make([]int64, 0, n/10)
	for r := int64(0); r < n; r += 10 {
		rows, offs = append(rows, r), append(offs, r*37)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(0, nil)
	m.RecordRows(0, rows, offs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rows)
	runtime.KeepAlive(offs)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	got := m.MemSize()
	runtime.KeepAlive(m)
	if d := got - heap; d > heap/10 || -d > heap/10 {
		t.Fatalf("MemSize = %d, live heap grew by %d: off by more than 10 %%", got, heap)
	}
}

// TestWideEscapeEdges: offsets at the edges of a block's narrow window
// keep their exact value, and the escape is charged its wide slots. Row
// 0's offset sets the block's base 2 GiB below it.
func TestWideEscapeEdges(t *testing.T) {
	const first = 3 << 31
	base := int64(first - window)
	for _, c := range []struct {
		off  int64
		wide bool
	}{
		{base, false},
		{base + noPos - 1, false},
		{base + noPos, true}, // its delta would be the sentinel
		{base - 1, true},
	} {
		m := New(0, nil)
		m.RecordRows(0, []int64{0, 5}, []int64{first, c.off})
		if off, ok := m.Lookup(0, 5); !ok || off != c.off {
			t.Fatalf("offset %d: Lookup = %d,%v", c.off, off, ok)
		}
		if off, ok := m.Lookup(0, 0); !ok || off != first {
			t.Fatalf("offset %d: row 0 lost: %d,%v", c.off, off, ok)
		}
		if _, ok := m.Lookup(0, 3); ok {
			t.Fatalf("offset %d: unrecorded row 3 found", c.off)
		}
		// A column slot, an index slot, a block, whose escape to the wide
		// layout doubles its slots' bytes, and the two rows' intervals.
		want := int64(8 + 8 + narrowCost + 2*intervalCost)
		if c.wide {
			want += 4 * blockRows
		}
		if got := m.MemSize(); got != want {
			t.Fatalf("offset %d: MemSize = %d, want %d", c.off, got, want)
		}
	}
}

// modelStep is one write of offs at rows start..: a RecordRun, or, when
// single is set, one single-row RecordRows per entry.
type modelStep struct {
	col    int
	start  int64
	offs   []int64
	single bool
}

// TestModel drives the map and a brute-force model, map[col]map[row]off,
// through seeded step sequences, one generator per edge layout, and
// compares every reader after every step.
func TestModel(t *testing.T) {
	const cols, rows = 3, 6000
	// offsAt gives step k's offsets for rows start..start+n-1: distinct
	// from every other step's, so a stale slot cannot pass for a new one.
	offsAt := func(k int, start int64, n int) []int64 {
		offs := make([]int64, n)
		for i := range offs {
			offs[i] = int64(k)<<24 + (start+int64(i))*41
		}
		return offs
	}
	runs := func(r *rand.Rand, k int, maxLen int) modelStep {
		start := r.Int64N(rows - 1)
		n := 1 + r.IntN(min(maxLen, int(rows-start)))
		return modelStep{col: r.IntN(cols), start: start, offs: offsAt(k, start, n)}
	}
	// wideSteps mixes runs and records, half with offsets 1<<33 apart,
	// which no narrow delta reaches.
	wideSteps := func(r *rand.Rand) []modelStep {
		steps := make([]modelStep, 30)
		for k := range steps {
			steps[k] = runs(r, k, 2000)
			if r.IntN(2) == 0 {
				for i := range steps[k].offs {
					steps[k].offs[i] = (steps[k].start+int64(i))<<33 + int64(k)
				}
			}
			steps[k].single = r.IntN(4) == 0
		}
		return steps
	}
	cases := []struct {
		name   string
		budget int64
		gen    func(r *rand.Rand) []modelStep
	}{
		{"in-order runs", 0, func(r *rand.Rand) []modelStep {
			var steps []modelStep
			for c := range cols {
				for start := int64(0); start < rows; {
					n := 1 + r.IntN(1500)
					steps = append(steps, modelStep{col: c, start: start, offs: offsAt(len(steps), start, n)})
					start += int64(n)
				}
			}
			return steps
		}},
		{"reverse runs", 0, func(r *rand.Rand) []modelStep {
			var steps []modelStep
			for start := int64(0); start < rows; {
				n := 1 + r.IntN(1500)
				steps = append(steps, modelStep{col: 1, start: start, offs: offsAt(len(steps), start, n)})
				start += int64(n)
			}
			slices.Reverse(steps)
			return steps
		}},
		{"overlapping runs", 0, func(r *rand.Rand) []modelStep {
			steps := make([]modelStep, 30)
			for k := range steps {
				steps[k] = runs(r, k, 2500)
			}
			return steps
		}},
		{"scattered records", 0, func(r *rand.Rand) []modelStep {
			steps := make([]modelStep, 150)
			for k := range steps {
				steps[k] = runs(r, k, 1)
				steps[k].single = true
			}
			return steps
		}},
		{"block straddled by two runs", 0, func(r *rand.Rand) []modelStep {
			var steps []modelStep
			for b := int64(1); b < rows/blockRows; b++ {
				cut := b*blockRows + r.Int64N(blockRows)
				lo, hi := cut-r.Int64N(900)-1, cut+r.Int64N(900)+1
				a := modelStep{col: 0, start: lo, offs: offsAt(len(steps), lo, int(cut-lo))}
				c := modelStep{col: 0, start: cut, offs: offsAt(len(steps)+1, cut, int(hi-cut))}
				if r.IntN(2) == 0 {
					a, c = c, a
				}
				steps = append(steps, a, c)
			}
			return steps
		}},
		{"budget cut mid-run", 3*8 + 8*8 + 5*(8+4*blockRows), func(r *rand.Rand) []modelStep {
			steps := make([]modelStep, 20)
			for k := range steps {
				steps[k] = runs(r, k, 3000)
			}
			return steps
		}},
		{"wide blocks", 0, wideSteps},
		{"wide blocks under a budget", 3*8 + 8*8 + 4*(8+4*blockRows) + 8*blockRows, wideSteps},
	}
	for _, tc := range cases {
		for seed := range uint64(4) {
			r := rand.New(rand.NewPCG(seed, 31))
			m := New(tc.budget, nil)
			model := map[int]map[int64]int64{}
			for k, st := range tc.gen(r) {
				if model[st.col] == nil {
					model[st.col] = map[int64]int64{}
				}
				if st.single {
					for i, off := range st.offs {
						row := st.start + int64(i)
						m.RecordRows(st.col, []int64{row}, []int64{off})
						// Under a budget a write may be dropped.
						if got, ok := m.Lookup(st.col, row); tc.budget == 0 || ok && got == off {
							model[st.col][row] = off
						}
					}
				} else {
					m.RecordRun(st.col, st.start, st.offs)
					n := len(st.offs)
					if tc.budget > 0 {
						// The run lands as a prefix cut at a block boundary.
						n = 0
						for n < len(st.offs) {
							if off, ok := m.Lookup(st.col, st.start+int64(n)); !ok || off != st.offs[n] {
								break
							}
							n++
						}
						if n > 0 && n < len(st.offs) && (st.start+int64(n))%blockRows != 0 {
							t.Fatalf("%s seed %d step %d: run cut at row %d, inside a block", tc.name, seed, k, st.start+int64(n))
						}
					}
					for i, off := range st.offs[:n] {
						model[st.col][st.start+int64(i)] = off
					}
				}
				if err := checkModel(m, model, cols, rows, tc.budget, r); err != "" {
					t.Fatalf("%s seed %d step %d (col %d, rows %d+%d, single %v): %s",
						tc.name, seed, k, st.col, st.start, len(st.offs), st.single, err)
				}
			}
		}
	}
}

// checkModel compares every reader of m with the model and returns what
// disagrees, or "".
func checkModel(m *Map, model map[int]map[int64]int64, cols int, rows int64, budget int64, r *rand.Rand) string {
	total := 0
	var covered []int
	for c := range cols {
		want := model[c]
		total += len(want)
		if len(want) > 0 {
			covered = append(covered, c)
		}
		for row := int64(0); row < rows+blockRows; row++ {
			wantOff, wantOK := want[row]
			if off, ok := m.Lookup(c, row); ok != wantOK || off != wantOff {
				return fmt.Sprintf("Lookup(%d,%d) = %d,%v want %d,%v", c, row, off, ok, wantOff, wantOK)
			}
		}
		wantRows := slices.Sorted(maps.Keys(want))
		wantOffs := make([]int64, len(wantRows))
		for i, row := range wantRows {
			wantOffs[i] = want[row]
		}
		gotRows, gotOffs := m.Pairs(c)
		if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotOffs, wantOffs) {
			return fmt.Sprintf("Pairs(%d): %d rows, want %d", c, len(gotRows), len(wantRows))
		}
		for range 20 {
			lo := r.Int64N(rows)
			hi := lo + 1 + r.Int64N(1500)
			wantCov := true
			for row := lo; row < hi && wantCov; row++ {
				_, wantCov = want[row]
			}
			if m.Covers(c, lo, hi) != wantCov {
				return fmt.Sprintf("Covers(%d,%d,%d) = %v", c, lo, hi, !wantCov)
			}
		}
	}
	if m.Entries() != total {
		return fmt.Sprintf("Entries = %d, want %d", m.Entries(), total)
	}
	if !slices.Equal(m.CoveredCols(), covered) {
		return fmt.Sprintf("CoveredCols = %v, want %v", m.CoveredCols(), covered)
	}
	if budget > 0 && m.MemSize() > budget {
		return fmt.Sprintf("MemSize = %d over the budget %d", m.MemSize(), budget)
	}
	return ""
}
