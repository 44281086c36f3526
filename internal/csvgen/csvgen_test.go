package csvgen

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func genString(t *testing.T, s Spec) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.String()
}

func TestWriteShape(t *testing.T) {
	out := genString(t, Spec{Rows: 10, Cols: 4, Seed: 1})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("got %d lines, want 10", len(lines))
	}
	for i, l := range lines {
		if got := strings.Count(l, ","); got != 3 {
			t.Fatalf("line %d: %d commas, want 3: %q", i, got, l)
		}
	}
}

func TestUniqueIntsArePermutation(t *testing.T) {
	const rows = 500
	out := genString(t, Spec{Rows: rows, Cols: 2, Seed: 7})
	seen := make([]bool, rows)
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		f := strings.Split(l, ",")[0]
		v, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("non-integer field %q: %v", f, err)
		}
		if v < 0 || v >= rows {
			t.Fatalf("value %d out of range [0,%d)", v, rows)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestDeterminism(t *testing.T) {
	a := genString(t, Spec{Rows: 100, Cols: 3, Seed: 42})
	b := genString(t, Spec{Rows: 100, Cols: 3, Seed: 42})
	if a != b {
		t.Error("same seed should generate identical data")
	}
	c := genString(t, Spec{Rows: 100, Cols: 3, Seed: 43})
	if a == c {
		t.Error("different seeds should generate different data")
	}
}

func TestColumnsDiffer(t *testing.T) {
	out := genString(t, Spec{Rows: 50, Cols: 2, Seed: 5})
	var c0, c1 []string
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		f := strings.Split(l, ",")
		c0 = append(c0, f[0])
		c1 = append(c1, f[1])
	}
	same := true
	for i := range c0 {
		if c0[i] != c1[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two UniqueInts columns should hold different permutations")
	}
}

func TestHeader(t *testing.T) {
	out := genString(t, Spec{Rows: 2, Cols: 3, Seed: 1, Header: true})
	first := strings.SplitN(out, "\n", 2)[0]
	if first != "a1,a2,a3" {
		t.Errorf("header = %q, want a1,a2,a3", first)
	}
}

func TestDelimiter(t *testing.T) {
	out := genString(t, Spec{Rows: 3, Cols: 2, Seed: 1, Delimiter: '|'})
	if !strings.Contains(out, "|") || strings.Contains(out, ",") {
		t.Errorf("custom delimiter not honored: %q", out)
	}
}

func TestMixedColSpecs(t *testing.T) {
	out := genString(t, Spec{
		Rows: 20, Cols: 4, Seed: 3,
		ColSpecs: []ColSpec{
			{Kind: SequentialInts},
			{Kind: Floats, Max: 100},
			{Kind: Strings},
			// 4th defaults to UniqueInts
		},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, l := range lines {
		f := strings.Split(l, ",")
		if f[0] != strconv.Itoa(i) {
			t.Errorf("row %d: sequential col = %q", i, f[0])
		}
		if _, err := strconv.ParseFloat(f[1], 64); err != nil {
			t.Errorf("row %d: float col = %q", i, f[1])
		}
		if !strings.Contains(f[1], ".") {
			t.Errorf("row %d: float col should have a decimal point: %q", i, f[1])
		}
		if _, err := strconv.Atoi(f[2]); err == nil {
			t.Errorf("row %d: string col parsed as int: %q", i, f[2])
		}
	}
}

func TestZipfSkew(t *testing.T) {
	out := genString(t, Spec{Rows: 2000, Cols: 1, Seed: 9, ColSpecs: []ColSpec{{Kind: ZipfInts, Max: 1000}}})
	counts := map[string]int{}
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		counts[l]++
	}
	if counts["0"] < 200 { // zipf s=1.2 concentrates mass at 0
		t.Errorf("zipf should be skewed toward 0, got count(0)=%d", counts["0"])
	}
}

func TestUniformIntsRange(t *testing.T) {
	out := genString(t, Spec{Rows: 300, Cols: 1, Seed: 2, ColSpecs: []ColSpec{{Kind: UniformInts, Max: 10}}})
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		v, err := strconv.Atoi(l)
		if err != nil || v < 0 || v >= 10 {
			t.Fatalf("uniform value out of range: %q", l)
		}
	}
}

func TestInvalidSpec(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Spec{Rows: 10, Cols: 0}); err == nil {
		t.Error("zero columns should error")
	}
	if err := Write(&buf, Spec{Rows: -1, Cols: 1}); err == nil {
		t.Error("negative rows should error")
	}
}

func TestWriteAndEnsureFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "t.csv")
	spec := Spec{Rows: 10, Cols: 2, Seed: 1}
	if err := WriteFile(path, spec); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// EnsureFile must not rewrite an existing file.
	if err := EnsureFile(path, Spec{Rows: 99999, Cols: 2, Seed: 1}); err != nil {
		t.Fatalf("EnsureFile: %v", err)
	}
	st2, _ := os.Stat(path)
	if st1.Size() != st2.Size() {
		t.Error("EnsureFile rewrote an existing file")
	}
}

func BenchmarkWrite1Mx4(b *testing.B) {
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, Spec{Rows: 1_000_000, Cols: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
