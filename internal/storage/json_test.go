package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
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
