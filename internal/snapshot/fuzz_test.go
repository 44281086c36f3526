package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nodb/internal/posmap"
	"nodb/internal/schema"
)

// FuzzSnapshotReader throws arbitrary bytes at the snapshot reader. The
// contract under attack: whatever is on disk, the reader must never
// panic, and anything that fails validation must surface as an error —
// a header that parses but lies about section offsets, a truncated
// frame, a flipped byte inside a checksummed payload. (Wrong data that
// *passes* the CRCs is indistinguishable by construction; the corpus
// seeds mutated real snapshots so coverage reaches the validation
// branches rather than dying at the magic check.) Every positional-map
// column that decodes must survive posmap's LoadColumn → Pairs round
// trip unchanged, or be refused whole when it is not a valid map.
func FuzzSnapshotReader(f *testing.F) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, testSig(), fuzzTable(32)); err != nil {
		f.Fatal(err)
	}
	real := buf.Bytes()
	f.Add(append([]byte(nil), real...))
	buf.Reset()
	if _, err := Encode(&buf, testSig(), posmapTable()); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Add(append([]byte(nil), real[:len(real)/2]...)) // truncated mid-section
	f.Add(append([]byte(nil), real[:16]...))          // truncated header
	f.Add([]byte{})
	f.Add([]byte("not a snapshot at all"))
	flip := append([]byte(nil), real...)
	flip[len(flip)/3] ^= 0xff // payload bit flip: index parses, CRC must catch it
	f.Add(flip)
	hdr := append([]byte(nil), real...)
	hdr[9] ^= 0x01 // header/section-table damage
	f.Add(hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReaderAny(path, nil)
		if err != nil {
			return // rejected up front — the only other acceptable outcome
		}
		defer r.Close()
		// Walk every accessor; errors are fine, panics and hangs are not.
		r.Sig()
		r.Rows()
		r.Truncated()
		for _, col := range r.DenseCols() {
			_, _ = r.Dense(col)
		}
		pm, _ := r.PosMap()
		for _, pc := range pm {
			m := posmap.New(1<<20, nil) // a small budget keeps huge row ids cheap
			m.LoadColumn(pc.Col, pc.Rows, pc.Offs)
			n := m.Entries()
			if n > len(pc.Rows) {
				t.Fatalf("col %d: %d entries from %d rows", pc.Col, n, len(pc.Rows))
			}
			if n == 0 || n < len(pc.Rows) {
				continue // invalid, or cut by the budget
			}
			if rows, offs := m.Pairs(pc.Col); !slices.Equal(rows, pc.Rows) || !slices.Equal(offs, pc.Offs) {
				t.Fatalf("col %d: LoadColumn/Pairs round trip changed the positions", pc.Col)
			}
		}
		_, _ = r.Sparse()
		_, _ = r.Regions()
		_, _ = r.Synopsis()
		_, _ = r.SplitsManifest()
	})
}

// fuzzTable mirrors the round-trip test table: every section kind
// populated so the seed corpus exercises every decoder.
func fuzzTable(rows int) *Table {
	t := &Table{Rows: int64(rows)}
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	offs := make([]int64, rows)
	rowIDs := make([]int64, rows)
	for i := 0; i < rows; i++ {
		ints[i] = int64(i * 3)
		floats[i] = float64(i) / 2
		strs[i] = string(rune('a' + i%26))
		offs[i] = int64(i * 17)
		rowIDs[i] = int64(i)
	}
	t.Dense = append(t.Dense,
		DenseCol{Col: 0, Typ: schema.Int64, Ints: ints},
		DenseCol{Col: 1, Typ: schema.Float64, Floats: floats},
		DenseCol{Col: 2, Typ: schema.String, Strs: strs},
	)
	t.PosMap = append(t.PosMap, PosMapCol{Col: 0, Rows: rowIDs, Offs: offs})
	t.Sparse = append(t.Sparse, SparseCol{Col: 3, Typ: schema.Int64, Rows: []int64{1, 5, 9}, Ints: []int64{10, 50, 90}})
	t.Regions = append(t.Regions, Region{Cols: []int{3}, RangeCols: []int{3}, Los: []int64{0}, His: []int64{100}})
	t.Splits = &Splits{Seq: 2, Sidecars: map[int]string{0: "/tmp/x.c0.col"}}
	return t
}

// posmapTable is a snapshot of a positional map's columns, kept small so
// the fuzzer mutates it quickly: a dense column, a sparse one whose block
// 0 is straddled by two runs, and a wide one with offsets 1<<33 apart.
func posmapTable() *Table {
	m := posmap.New(0, nil)
	offs := make([]int64, 40)
	for i := range offs {
		offs[i] = int64(i) * 23
	}
	m.RecordRun(0, 0, offs)
	m.RecordRun(1, 1010, offs[:20])
	m.RecordRun(1, 1030, offs[20:])
	for r := int64(0); r < 40; r += 7 {
		m.Record(2, r, r<<33)
	}
	t := &Table{Rows: 1050}
	for _, col := range m.CoveredCols() {
		rows, offs := m.Pairs(col)
		t.PosMap = append(t.PosMap, PosMapCol{Col: col, Rows: rows, Offs: offs})
	}
	return t
}
