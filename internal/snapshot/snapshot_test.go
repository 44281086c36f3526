package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nodb/internal/metrics"
	"nodb/internal/schema"
)

func testSig() Sig { return Sig{Size: 12345, ModTime: 987654321, Prefix: 0xdeadbeef} }

func testTable(rows int) *Table {
	t := &Table{Rows: int64(rows)}
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	offs := make([]int64, rows)
	for i := range ints {
		ints[i] = int64(i * 3)
		floats[i] = float64(i) / 2
		strs[i] = fmt.Sprintf("v%d", i)
		offs[i] = int64(i * 17)
	}
	rowIDs := make([]int64, rows)
	for i := range rowIDs {
		rowIDs[i] = int64(i)
	}
	t.Dense = append(t.Dense,
		DenseCol{Col: 0, Typ: schema.Int64, Ints: ints},
		DenseCol{Col: 1, Typ: schema.Float64, Floats: floats},
		DenseCol{Col: 2, Typ: schema.String, Strs: strs},
	)
	t.PosMap = append(t.PosMap, PosMapCol{Col: 0, Rows: rowIDs, Offs: offs})
	t.Sparse = append(t.Sparse, SparseCol{
		Col: 3, Typ: schema.Int64,
		Rows: []int64{1, 5, 9}, Ints: []int64{10, 50, 90},
	})
	t.Regions = append(t.Regions, Region{
		Cols: []int{3}, RangeCols: []int{3}, Los: []int64{0}, His: []int64{100},
	})
	return t
}

func writeSnap(t *testing.T, tbl *Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Encode(f, testSig(), tbl); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	want := testTable(100)
	path := writeSnap(t, want)

	got, err := DecodeAll(path, testSig(), nil)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if got.Rows != want.Rows {
		t.Errorf("rows = %d, want %d", got.Rows, want.Rows)
	}
	if len(got.Dense) != 3 || len(got.PosMap) != 1 || len(got.Sparse) != 1 || len(got.Regions) != 1 {
		t.Fatalf("section counts: dense=%d posmap=%d sparse=%d regions=%d",
			len(got.Dense), len(got.PosMap), len(got.Sparse), len(got.Regions))
	}
	for i := range want.Dense[0].Ints {
		if got.Dense[0].Ints[i] != want.Dense[0].Ints[i] {
			t.Fatalf("dense int %d = %d, want %d", i, got.Dense[0].Ints[i], want.Dense[0].Ints[i])
		}
	}
	if got.Dense[1].Floats[7] != want.Dense[1].Floats[7] {
		t.Error("float column mismatch")
	}
	if got.Dense[2].Strs[13] != "v13" {
		t.Errorf("string column mismatch: %q", got.Dense[2].Strs[13])
	}
	if got.PosMap[0].Offs[50] != 50*17 {
		t.Error("posmap mismatch")
	}
	if got.Sparse[0].Rows[2] != 9 || got.Sparse[0].Ints[2] != 90 {
		t.Error("sparse mismatch")
	}
	r := got.Regions[0]
	if len(r.Cols) != 1 || r.Cols[0] != 3 || r.Los[0] != 0 || r.His[0] != 100 {
		t.Errorf("region mismatch: %+v", r)
	}
}

// legacySplitsSnapshot returns a snapshot as an older build wrote it: a
// positional map, a dense column, a kind-6 split-file manifest and a
// synopsis, in the order that build's Encode emitted them.
func legacySplitsSnapshot(tb testing.TB) []byte {
	tb.Helper()
	tbl := &Table{
		Rows:   3,
		PosMap: []PosMapCol{{Col: 0, Rows: []int64{0, 1, 2}, Offs: []int64{0, 4, 8}}},
		Dense:  []DenseCol{{Col: 1, Typ: schema.Int64, Ints: []int64{7, 8, 9}}},
	}
	var head bytes.Buffer
	if _, err := Encode(&head, testSig(), tbl); err != nil {
		tb.Fatal(err)
	}
	tbl.Synopsis = []SynPortion{{Off: 0, End: 12, Rows: 3, Cols: []SynCol{{Col: 1, Typ: schema.Int64, MinI: 7, MaxI: 9, MinExact: true, MaxExact: true}}}}
	var full bytes.Buffer
	if _, err := Encode(&full, testSig(), tbl); err != nil {
		tb.Fatal(err)
	}
	if !bytes.HasPrefix(full.Bytes(), head.Bytes()) {
		tb.Fatal("the synopsis section is not encoded last")
	}
	// The old manifest payload: seq, sidecars (col, path), residual files
	// (path, cols).
	var sw sectionWriter
	sw.u32(2)
	sw.u32(1)
	sw.u32(0)
	sw.str("/gone/t.csv.c0.2.col")
	sw.u32(1)
	sw.str("/gone/t.csv.rest1.2.csv")
	sw.u32(1)
	sw.u32(1)
	out := bytes.NewBuffer(append([]byte(nil), head.Bytes()...))
	if _, err := writeSection(out, 6, -1, sw.buf); err != nil {
		tb.Fatal(err)
	}
	out.Write(full.Bytes()[head.Len():])
	return out.Bytes()
}

// TestLegacySplitsSectionIgnored opens a snapshot holding the kind-6
// split-file manifest older builds wrote: the reader skips that section
// and restores the others.
func TestLegacySplitsSectionIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(path, legacySplitsSnapshot(t), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(how string, pm []PosMapCol, dense []DenseCol, syn []SynPortion) {
		t.Helper()
		if len(pm) != 1 || pm[0].Col != 0 || pm[0].Offs[2] != 8 {
			t.Errorf("%s: posmap = %+v", how, pm)
		}
		if len(dense) != 1 || dense[0].Col != 1 || dense[0].Ints[2] != 9 {
			t.Errorf("%s: dense = %+v", how, dense)
		}
		if len(syn) != 1 || len(syn[0].Cols) != 1 || syn[0].Cols[0].MaxI != 9 || syn[0].Rows != 3 {
			t.Errorf("%s: synopsis = %+v", how, syn)
		}
	}

	r, err := OpenReader(path, testSig(), nil)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer r.Close()
	if r.Truncated() || r.Rows() != 3 {
		t.Fatalf("truncated=%v rows=%d", r.Truncated(), r.Rows())
	}
	pm, err := r.PosMap()
	if err != nil {
		t.Fatalf("PosMap: %v", err)
	}
	d, err := r.Dense(1)
	if err != nil {
		t.Fatalf("Dense: %v", err)
	}
	syn, err := r.Synopsis()
	if err != nil {
		t.Fatalf("Synopsis: %v", err)
	}
	check("Reader", pm, []DenseCol{d}, syn)

	all, err := DecodeAll(path, testSig(), nil)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	check("DecodeAll", all.PosMap, all.Dense, all.Synopsis)
}

func TestStaleSignature(t *testing.T) {
	path := writeSnap(t, testTable(10))
	other := testSig()
	other.ModTime++
	if _, err := DecodeAll(path, other, nil); !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
}

func TestLazyReaderSelective(t *testing.T) {
	path := writeSnap(t, testTable(200))
	var read int64
	r, err := OpenReader(path, testSig(), func(n int64) { read += n })
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	openCost := read
	if r.Rows() != 200 {
		t.Fatalf("rows = %d", r.Rows())
	}
	if !r.HasDense(1) || r.HasDense(9) {
		t.Fatal("dense index wrong")
	}
	if got := r.DenseCols(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("DenseCols = %v", got)
	}
	if b := r.DenseBytes(0); b != int64(1+8+200*8) {
		t.Fatalf("DenseBytes(0) = %d", b)
	}
	d, err := r.Dense(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Floats) != 200 {
		t.Fatalf("decoded %d floats", len(d.Floats))
	}
	// Opening reads only the header; decoding one column must not have
	// paid for the string column or the positional map.
	st, _ := os.Stat(path)
	if read >= st.Size() {
		t.Fatalf("lazy read consumed %d of %d file bytes", read, st.Size())
	}
	if openCost > 64 {
		t.Fatalf("open alone read %d payload bytes", openCost)
	}
}

// corruptAt flips one byte at off.
func corruptAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptSectionIsIsolated(t *testing.T) {
	path := writeSnap(t, testTable(100))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte ~2/3 into the file: lands in a later section's payload.
	corruptAt(t, path, st.Size()*2/3)

	r, err := OpenReader(path, testSig(), nil)
	if err != nil {
		t.Fatalf("OpenReader after payload corruption: %v", err)
	}
	defer r.Close()
	bad := 0
	for _, c := range r.DenseCols() {
		if _, err := r.Dense(c); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			bad++
		}
	}
	if _, err := r.PosMap(); err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("posmap: %v", err)
	}
	if _, err := r.Sparse(); err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sparse: %v", err)
	}
	if bad == 0 {
		// The flip landed outside dense payloads; it must then surface in
		// posmap/sparse/regions instead — either way DecodeAll sees it.
		if _, err := DecodeAll(path, testSig(), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption vanished: DecodeAll err = %v", err)
		}
	}
}

func TestTruncationMidSection(t *testing.T) {
	path := writeSnap(t, testTable(100))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int64{2, 3, 10} {
		trunc := filepath.Join(t.TempDir(), "trunc.snap")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trunc, data[:st.Size()/frac], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(trunc, testSig(), nil)
		if err != nil {
			// Truncated before the header completes: whole file rejected.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("1/%d: err = %v, want ErrCorrupt", frac, err)
			}
			continue
		}
		if !r.Truncated() && frac > 1 {
			// Only acceptable if truncation fell exactly on a section edge.
			t.Logf("1/%d: truncation on a section boundary", frac)
		}
		// Every indexed section must still decode cleanly (the index pass
		// excluded anything reaching past EOF).
		for _, c := range r.DenseCols() {
			if _, err := r.Dense(c); err != nil {
				t.Fatalf("1/%d: indexed section corrupt: %v", frac, err)
			}
		}
		r.Close()
	}
}

func TestTruncatedHeader(t *testing.T) {
	path := writeSnap(t, testTable(5))
	data, _ := os.ReadFile(path)
	for _, n := range []int{0, 4, 9, 12, 20} {
		p := filepath.Join(t.TempDir(), "h.snap")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenReader(p, testSig(), nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("len %d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestGarbageFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "g.snap")
	if err := os.WriteFile(p, bytes.Repeat([]byte{0x5a}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(p, testSig(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestStoreSaveLoadInvalidate(t *testing.T) {
	var c metrics.Counters
	s := NewStore(t.TempDir(), &c)
	var logged []string
	s.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }

	key := Key("events", "/data/events.csv")
	if r := s.Open(key, testSig()); r != nil {
		t.Fatal("open of absent snapshot returned a reader")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if err := s.Save(key, testSig(), testTable(50)); err != nil {
		t.Fatal(err)
	}
	r := s.Open(key, testSig())
	if r == nil {
		t.Fatal("open after save failed")
	}
	r.Close()
	if st := s.Stats(); st.Hits != 1 || st.Saves != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A stale snapshot (file "edited") is removed, counted, and logged.
	newer := testSig()
	newer.Size++
	if r := s.Open(key, newer); r != nil {
		t.Fatal("stale snapshot served")
	}
	if st := s.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if len(logged) == 0 {
		t.Fatal("invalidation was not logged")
	}
	if _, err := os.Stat(s.SnapPath(key)); !os.IsNotExist(err) {
		t.Fatal("stale snapshot file not removed")
	}
	if c.Snapshot().SnapshotInvalid != 1 {
		t.Fatal("metrics counter not fed")
	}
}

func TestStoreSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, nil)
	s.Logf = func(string, ...any) {}
	key := Key("t", "/x.csv")
	want := &Table{Rows: 10, PosMap: []PosMapCol{{Col: 2, Rows: []int64{0, 1}, Offs: []int64{5, 11}}}}
	if err := s.SaveSpill(key, testSig(), want); err != nil {
		t.Fatal(err)
	}
	// The file name is stable across versions, so a spill written by an
	// earlier process still restores.
	if _, err := os.Stat(filepath.Join(dir, key+".posmap.spill")); err != nil {
		t.Fatalf("spill file not at <key>.posmap.spill: %v", err)
	}
	if !s.HasSpill(key) {
		t.Fatal("spill not detected")
	}
	got := s.LoadSpill(key, testSig())
	if got == nil || len(got.PosMap) != 1 || got.PosMap[0].Offs[1] != 11 {
		t.Fatalf("spill round trip: %+v", got)
	}
	// One-shot: the file is consumed by a successful load.
	if s.HasSpill(key) {
		t.Fatal("spill file survived its restore")
	}
	if got := s.LoadSpill(key, testSig()); got != nil {
		t.Fatal("second load served data")
	}
	if st := s.Stats(); st.Spills != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyDistinguishesPaths(t *testing.T) {
	if Key("t", "/a/data.csv") == Key("t", "/b/data.csv") {
		t.Fatal("keys collide across paths")
	}
	if Key("a b/c", "/x") == Key("a_b_c", "/x") {
		t.Log("sanitized names may collide; the path hash still separates real tables")
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	tbl := testTable(100_000)
	var total int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		n, err := Encode(&buf, testSig(), tbl)
		if err != nil {
			b.Fatal(err)
		}
		total = n
	}
	b.SetBytes(total)
}

func BenchmarkSnapshotDecode(b *testing.B) {
	tbl := testTable(100_000)
	dir := b.TempDir()
	path := filepath.Join(dir, "b.snap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	n, err := Encode(f, testSig(), tbl)
	if err != nil {
		b.Fatal(err)
	}
	f.Close()
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeAll(path, testSig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if got.Rows != tbl.Rows {
			b.Fatal("bad decode")
		}
	}
}

// TestOpenVerifyGrownAccept pins the append-aware open path: the caller's
// verifier sees the stored signature and can accept a snapshot of a
// prefix-stable ancestor of the raw file, which Open's exact match would
// discard as stale.
func TestOpenVerifyGrownAccept(t *testing.T) {
	s := NewStore(t.TempDir(), nil)
	s.Logf = func(string, ...any) {}
	key := Key("t", "/data/t.csv")
	old := testSig()
	if err := s.Save(key, old, testTable(10)); err != nil {
		t.Fatal(err)
	}

	// The raw file has grown since the save; the verifier recognizes the
	// stored signature as the validated prefix and accepts.
	grown := old
	grown.Size += 4096
	r := s.OpenVerify(key, func(sig Sig) bool { return sig == old })
	if r == nil {
		t.Fatal("verifier accepted but OpenVerify returned nil")
	}
	if r.Sig() != old {
		t.Errorf("stored sig = %+v, want %+v", r.Sig(), old)
	}
	if r.Sig() == grown {
		t.Error("reader must expose the snapshot's signature, not the file's")
	}
	r.Close()

	// A rejecting verifier invalidates the file on disk.
	before := s.Stats().Invalidations
	if r := s.OpenVerify(key, func(Sig) bool { return false }); r != nil {
		r.Close()
		t.Fatal("rejected snapshot still returned a reader")
	}
	if got := s.Stats().Invalidations; got != before+1 {
		t.Errorf("invalidations = %d, want %d", got, before+1)
	}
	if r := s.OpenVerify(key, func(Sig) bool { return true }); r != nil {
		r.Close()
		t.Fatal("invalidated snapshot file should be gone")
	}
}
