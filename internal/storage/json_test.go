package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"nodb/internal/schema"
)

// referenceJSONRow encodes row the way the servers did before the
// append-style encoder: boxed into a []any and run through encoding/json
// with HTML escaping off.
func referenceJSONRow(row []Value) ([]byte, error) {
	boxed := make([]any, len(row))
	for i, v := range row {
		switch v.Typ {
		case schema.Int64:
			boxed[i] = v.I
		case schema.Float64:
			boxed[i] = v.F
		default:
			boxed[i] = v.S
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(boxed)
	return buf.Bytes(), err
}

// checkJSONRow asserts AppendJSONRow is byte- and error-identical to the
// reference, and leaves a non-empty prefix untouched either way.
func checkJSONRow(t *testing.T, row []Value) {
	t.Helper()
	want, wantErr := referenceJSONRow(row)
	prefix := []byte("prefix")
	got, gotErr := AppendJSONRow(append([]byte(nil), prefix...), row)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("row %v: error %v, encoding/json says %v", row, gotErr, wantErr)
	}
	if wantErr != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("row %v: failed encode left %q, want the prefix untouched", row, got)
		}
		var uve *json.UnsupportedValueError
		if !errors.As(gotErr, &uve) {
			t.Fatalf("row %v: error %T, want *json.UnsupportedValueError", row, gotErr)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("row %v:\n got %q\nwant %q", row, got[len(prefix):], want)
	}
}

// FuzzAppendJSONRow differentially tests the encoder against
// encoding/json over mixed int/float/string rows.
func FuzzAppendJSONRow(f *testing.F) {
	seeds := []struct {
		i int64
		x float64
		s string
	}{
		{0, 0, ""},
		{math.MinInt64, math.Copysign(0, -1), "plain ascii"},
		{math.MaxInt64, 1e-7, "<>&"},
		{-1, 1e20, "\x00\x01\x1f\x7f\b\f\n\r\t\"\\"},
		{42, 1e21, "\u2028\u2029 line seps"},
		{7, 5e-324, "\xff\xfe invalid utf-8 \xc3"},
		{-7, 2.2250738585072014e-308, "héllo, 世界 🙂"},
		{1, 1e-6, "\u00e9\u0301"},
		{2, 123456789.125, "tab\tin the middle"},
		{3, math.NaN(), "nan"},
		{4, math.Inf(1), "+inf"},
		{5, math.Inf(-1), "-inf"},
		{6, -1.5e-10, "e-10"},
		{8, 0.1, "'single'"},
	}
	for _, s := range seeds {
		f.Add(s.i, s.x, s.s)
	}
	f.Fuzz(func(t *testing.T, i int64, x float64, s string) {
		checkJSONRow(t, []Value{IntValue(i), FloatValue(x), StringValue(s)})
		checkJSONRow(t, []Value{StringValue(s), FloatValue(x)})
		checkJSONRow(t, []Value{FloatValue(x)})
	})
}

func TestAppendJSONRowEmptyRow(t *testing.T) {
	checkJSONRow(t, nil)
	checkJSONRow(t, []Value{})
}

func TestAppendJSONRows(t *testing.T) {
	rows := [][]Value{{IntValue(1), StringValue("a")}, {}, {FloatValue(2.5)}}
	got, err := AppendJSONRows(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	if want := `[[1,"a"],[],[2.5]]`; string(got) != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	if got, _ := AppendJSONRows(nil, nil); string(got) != "[]" {
		t.Fatalf("no rows: got %s, want []", got)
	}
	bad := append(rows, []Value{IntValue(3), FloatValue(math.NaN())})
	got, err = AppendJSONRows([]byte("x"), bad)
	if err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("NaN row: err = %v", err)
	}
	if string(got) != "x" {
		t.Fatalf("NaN row left %q, want the prefix untouched", got)
	}
}

// TestAppendJSONRowNoAllocs pins the zero-allocation contract: with a
// buffer that has room, encoding a row allocates nothing.
func TestAppendJSONRowNoAllocs(t *testing.T) {
	row := []Value{IntValue(-123456789), FloatValue(3.25), StringValue("needs \"escaping\"\n"), FloatValue(1e-9)}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = AppendJSONRow(buf[:0], row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendJSONRow allocated %.1f times per row, want 0", allocs)
	}
}

func BenchmarkAppendJSONRow(b *testing.B) {
	row := []Value{IntValue(123456), IntValue(-42), FloatValue(0.125), StringValue("a modest string")}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendJSONRow(buf[:0], row)
	}
}

// checkJSONCols asserts AppendJSONCols writes exactly what AppendJSONRow
// writes for the same rows boxed: on an unsupported value, the rows
// before the failing one, the same error, and nothing of the failing row.
// room picks dst's spare capacity past its prefix: none (0), exactly the
// expected output (1), or that minus its last row (2).
func checkJSONCols(t *testing.T, cols []*DenseColumn, sel []int32, n, room int) {
	t.Helper()
	prefix := []byte("prefix")
	want := append([]byte(nil), prefix...)
	lastRow := 0
	var wantErr error
	for r := 0; r < n; r++ {
		i := r
		if sel != nil {
			i = int(sel[r])
		}
		row := make([]Value, len(cols))
		for j, c := range cols {
			row[j] = c.Value(i)
		}
		before := len(want)
		if want, wantErr = AppendJSONRow(want, row); wantErr != nil {
			break
		}
		lastRow = len(want) - before
	}
	spare := []int{0, len(want) - len(prefix), len(want) - len(prefix) - lastRow}[room]
	dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
	got, gotErr := AppendJSONCols(dst, cols, sel, n)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("error %v, AppendJSONRow says %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sel %v:\n got %q\nwant %q", sel, got, want)
	}
}

// FuzzAppendJSONCols differentially tests the columnar encoder against
// AppendJSONRow (itself fuzzed against encoding/json) over random typed
// columns and a random selection vector. shape picks the layout: dst's
// spare capacity (none, exactly the output or one row short of it), the
// columns' kinds (mixed, or all int, all float or all string), whether the
// batch is large (up to 2 000 rows; otherwise up to 6), and seeds the
// rest. The seeds' shapes 0, 1, 2, ... cover every combination, so the
// encoder's per-row reservations and the growth between them are
// reached on the way to the exact output.
func FuzzAppendJSONCols(f *testing.F) {
	ints := []int64{0, 9, -9, 10, -10, 99, -99, 100, -100, math.MinInt64, math.MaxInt64}
	for p := int64(10); p <= 1e18; p *= 10 {
		ints = append(ints, p-1, p, p+1, -p+1, -p, -p-1)
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999999999999e-7, 1e20, 1e21, 9.999999999999999e20, -1e21, 0.5, math.NaN(), math.Inf(-1)}
	strs := []string{"", "plain", "\"\\\b\f\n\r\t\x00\x1f", "\xff\xfe invalid \xc3", "\u2028\u2029", "<>&", "héllo 🙂"}
	for k, i := range ints {
		f.Add(i, floats[k%len(floats)], strs[k%len(strs)], uint64(k))
	}
	for k, x := range floats {
		f.Add(int64(k), x, strs[k%len(strs)], uint64(k)*7919)
	}
	kinds := []schema.Type{schema.Int64, schema.Float64, schema.String}
	f.Fuzz(func(t *testing.T, i int64, x float64, s string, shape uint64) {
		room := int(shape % 3)
		kind := int(shape/3%4) - 1 // -1: mixed kinds
		rng := rand.New(rand.NewPCG(shape, 1))
		n := rng.IntN(7)
		if shape/12%4 == 0 {
			n = rng.IntN(2001)
		}
		cols := make([]*DenseColumn, 1+rng.IntN(4))
		for j := range cols {
			k := kind
			if k < 0 {
				k = rng.IntN(3)
			}
			c := &DenseColumn{Typ: kinds[k]}
			for r := 0; r < n; r++ {
				switch c.Typ {
				case schema.Int64:
					c.Ints = append(c.Ints, []int64{i, -i, i / 10, i + 1, rng.Int64() >> rng.IntN(64)}[rng.IntN(5)])
				case schema.Float64:
					c.Floats = append(c.Floats, []float64{x, -x, x / 3, rng.NormFloat64() * 1e9}[rng.IntN(4)])
				default:
					c.Strs = append(c.Strs, []string{s, s[rng.IntN(len(s)+1):], ""}[rng.IntN(3)])
				}
			}
			cols[j] = c
		}
		var sel []int32
		live := n
		if rng.IntN(2) == 0 {
			for r := 0; r < n; r++ {
				if rng.IntN(2) == 0 {
					sel = append(sel, int32(r))
				}
			}
			live = len(sel)
		}
		checkJSONCols(t, cols, sel, live, room)
	})
}

// TestAppendJSONColsIntsMatchStrconv checks the 8-digits-at-a-time int
// formatter against strconv at every digit-count and bit-length boundary
// (both signs), at the seams between its 8-digit groups, and at every
// value up to 10^7, through one-column batches of up to 1024 rows.
func TestAppendJSONColsIntsMatchStrconv(t *testing.T) {
	vals := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for p := int64(1); p <= 1e18; p *= 10 {
		vals = append(vals, p-1, p, p+1)
	}
	for b := 0; b < 63; b++ {
		vals = append(vals, 1<<b-1, 1<<b, 1<<b+1)
	}
	for _, seam := range []int64{1e8, 1e16} {
		vals = append(vals, seam-2, seam*2-1, seam*2, seam*9+1, seam*10-seam/10)
	}
	for _, v := range vals[:len(vals):len(vals)] {
		vals = append(vals, -v)
	}
	var got, want []byte
	check := func(ints []int64) {
		want = want[:0]
		for _, v := range ints {
			want = append(strconv.AppendInt(append(want, '['), v, 10), ']', '\n')
		}
		col := &DenseColumn{Typ: schema.Int64, Ints: ints}
		got, _ = AppendJSONCols(got[:0], []*DenseColumn{col}, nil, len(ints))
		if !bytes.Equal(got, want) {
			for _, v := range ints {
				row, _ := AppendJSONCols(nil, []*DenseColumn{{Typ: schema.Int64, Ints: []int64{v}}}, nil, 1)
				if w := "[" + strconv.FormatInt(v, 10) + "]\n"; string(row) != w {
					t.Fatalf("%d encodes as %q, want %q", v, row, w)
				}
			}
			t.Fatalf("batch of %d ints differs from strconv, no single value does", len(ints))
		}
	}
	check(vals)
	batch := make([]int64, 1024)
	for lo := int64(0); lo <= 1e7; lo += int64(len(batch)) {
		for k := range batch {
			batch[k] = lo + int64(k)
		}
		check(batch[:min(len(batch), int(1e7-lo+1))])
	}
}

// TestAppendJSONColsNoAllocs: with a buffer that has room, encoding a
// batch allocates nothing.
func TestAppendJSONColsNoAllocs(t *testing.T) {
	cols := []*DenseColumn{
		{Typ: schema.Int64, Ints: []int64{-123456789, 7, math.MinInt64}},
		{Typ: schema.Float64, Floats: []float64{3.25, 1e-9, 0}},
		{Typ: schema.String, Strs: []string{"needs \"escaping\"\n", "", "x"}},
	}
	sel := []int32{0, 2}
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = AppendJSONCols(buf[:0], cols, sel, len(sel)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendJSONCols allocated %.1f times per batch, want 0", allocs)
	}
}

// BenchmarkAppendJSONCols encodes one 1024-row batch per op, reporting
// ns/row over the rows written: dense is four int columns with every row
// live; stream-export is the stream-export workload's shape, four int
// columns of 0..299 999 with a third of the rows selected; mixed is an
// int, a float, a string and an int column with every row live.
func BenchmarkAppendJSONCols(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewPCG(1, 2))
	intCols := func(gen func(r, j int) int64) []*DenseColumn {
		cols := make([]*DenseColumn, 4)
		for j := range cols {
			cols[j] = &DenseColumn{Typ: schema.Int64}
			for r := 0; r < n; r++ {
				cols[j].Ints = append(cols[j].Ints, gen(r, j))
			}
		}
		return cols
	}
	var third []int32
	for r := 0; r < n; r++ {
		if rng.IntN(3) == 0 {
			third = append(third, int32(r))
		}
	}
	mixed := []*DenseColumn{{Typ: schema.Int64}, {Typ: schema.Float64}, {Typ: schema.String}, {Typ: schema.Int64}}
	for r := 0; r < n; r++ {
		mixed[0].Ints = append(mixed[0].Ints, rng.Int64N(300_000))
		mixed[1].Floats = append(mixed[1].Floats, rng.Float64()*1e4)
		mixed[2].Strs = append(mixed[2].Strs, "row-"+strconv.Itoa(r))
		mixed[3].Ints = append(mixed[3].Ints, rng.Int64()>>rng.IntN(64)-1<<20)
	}
	shapes := []struct {
		name string
		cols []*DenseColumn
		sel  []int32
	}{
		{"dense", intCols(func(r, j int) int64 { return int64(r*7919 + j*104729) }), nil},
		{"stream-export", intCols(func(int, int) int64 { return rng.Int64N(300_000) }), third},
		{"mixed", mixed, nil},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rows := n
			if sh.sel != nil {
				rows = len(sh.sel)
			}
			buf := make([]byte, 0, 64<<10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = AppendJSONCols(buf[:0], sh.cols, sh.sel, rows)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
