package schema

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/scan"
)

func detect(t *testing.T, content string, opts DetectOptions) *Schema {
	t.Helper()
	s, err := DetectBytes([]byte(content), opts)
	if err != nil {
		t.Fatalf("DetectBytes: %v", err)
	}
	return s
}

func TestDetectInts(t *testing.T) {
	s := detect(t, "1,2,3\n4,5,6\n", DetectOptions{})
	if s.NumCols() != 3 {
		t.Fatalf("NumCols = %d, want 3", s.NumCols())
	}
	for i, c := range s.Columns {
		if c.Type != Int64 {
			t.Errorf("col %d type = %v, want int64", i, c.Type)
		}
	}
	if s.HasHeader {
		t.Error("no header expected")
	}
	if s.Columns[0].Name != "a1" || s.Columns[2].Name != "a3" {
		t.Errorf("default names wrong: %v", s)
	}
}

func TestDetectHeader(t *testing.T) {
	s := detect(t, "id,price,name\n1,2.5,abc\n2,3.5,def\n", DetectOptions{})
	if !s.HasHeader {
		t.Fatal("header not detected")
	}
	wantNames := []string{"id", "price", "name"}
	wantTypes := []Type{Int64, Float64, String}
	for i, c := range s.Columns {
		if c.Name != wantNames[i] {
			t.Errorf("col %d name = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Type != wantTypes[i] {
			t.Errorf("col %d type = %v, want %v", i, c.Type, wantTypes[i])
		}
	}
}

func TestDetectAllStringsNoHeader(t *testing.T) {
	// All rows strings: cannot distinguish header; treat row 0 as data.
	s := detect(t, "abc,def\nghi,jkl\n", DetectOptions{})
	if s.HasHeader {
		t.Error("all-string file should not claim a header")
	}
	for _, c := range s.Columns {
		if c.Type != String {
			t.Errorf("type = %v, want string", c.Type)
		}
	}
}

func TestDetectFloatWidening(t *testing.T) {
	s := detect(t, "1,2\n3.5,4\n", DetectOptions{})
	if s.Columns[0].Type != Float64 {
		t.Errorf("int+float should widen to float, got %v", s.Columns[0].Type)
	}
	if s.Columns[1].Type != Int64 {
		t.Errorf("pure int column widened incorrectly to %v", s.Columns[1].Type)
	}
}

func TestDetectStringWidening(t *testing.T) {
	s := detect(t, "1,2\nx,4\n", DetectOptions{})
	if s.Columns[0].Type != String {
		t.Errorf("int+string should widen to string, got %v", s.Columns[0].Type)
	}
}

func TestDetectDelimiterSniff(t *testing.T) {
	cases := []struct {
		content string
		want    byte
	}{
		{"1,2,3\n4,5,6\n", ','},
		{"1\t2\t3\n4\t5\t6\n", '\t'},
		{"1|2|3\n4|5|6\n", '|'},
		{"1;2;3\n4;5;6\n", ';'},
	}
	for _, c := range cases {
		s := detect(t, c.content, DetectOptions{})
		if s.Delimiter != c.want {
			t.Errorf("content %q: delimiter = %q, want %q", c.content, s.Delimiter, c.want)
		}
	}
}

func TestDetectForcedDelimiter(t *testing.T) {
	s := detect(t, "1,2;3\n", DetectOptions{Delimiter: ';'})
	if s.Delimiter != ';' || s.NumCols() != 2 {
		t.Errorf("forced delimiter ignored: %v cols=%d", s.Delimiter, s.NumCols())
	}
}

func TestDetectSingleColumn(t *testing.T) {
	s := detect(t, "1\n2\n3\n", DetectOptions{})
	if s.NumCols() != 1 || s.Columns[0].Type != Int64 {
		t.Errorf("single column: %v", s)
	}
}

func TestDetectSingleLineNoNewline(t *testing.T) {
	s := detect(t, "1,2,3", DetectOptions{})
	if s.NumCols() != 3 || s.HasHeader {
		t.Errorf("single line: %v header=%v", s, s.HasHeader)
	}
}

func TestDetectEmpty(t *testing.T) {
	if _, err := DetectBytes(nil, DetectOptions{}); err == nil {
		t.Error("empty input should error")
	}
}

func TestDetectNegativeAndSigned(t *testing.T) {
	s := detect(t, "-1,+2\n-3,+4\n", DetectOptions{})
	if s.Columns[0].Type != Int64 || s.Columns[1].Type != Int64 {
		t.Errorf("signed ints misclassified: %v", s)
	}
}

func TestDetectFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.csv")
	if err := os.WriteFile(path, []byte("x,y\n1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Detect(path, DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasHeader || s.ColIndex("y") != 1 {
		t.Errorf("Detect file: %v header=%v", s, s.HasHeader)
	}
}

func TestColIndexCaseInsensitive(t *testing.T) {
	s := detect(t, "Alpha,Beta\n1,2\n", DetectOptions{})
	if s.ColIndex("alpha") != 0 || s.ColIndex("BETA") != 1 || s.ColIndex("nope") != -1 {
		t.Error("ColIndex lookup broken")
	}
}

func TestDetectRaggedRowsIgnored(t *testing.T) {
	// Rows with a deviating field count do not poison inference.
	s := detect(t, "1,2\n3,4\n5\n6,7\n", DetectOptions{})
	if s.NumCols() != 2 || s.Columns[0].Type != Int64 {
		t.Errorf("ragged row handling: %v", s)
	}
}

func TestDetectTruncatedTrailingLineDropped(t *testing.T) {
	// Simulates a sample window cutting a line: "99999" may be a prefix of
	// a longer field, so the incomplete line must not affect inference.
	content := "1,2\n3,4\n99999,str"
	s := detect(t, content, DetectOptions{})
	if s.Columns[1].Type != Int64 {
		t.Errorf("truncated line affected inference: %v", s)
	}
}

func TestSchemaString(t *testing.T) {
	s := detect(t, "1,2.5\n", DetectOptions{})
	str := s.String()
	if !strings.Contains(str, "a1 int64") || !strings.Contains(str, "a2 float64") {
		t.Errorf("String = %q", str)
	}
}

func TestTypeString(t *testing.T) {
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Error("Type.String misbehaves")
	}
	if Type(99).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestDetectNDJSON(t *testing.T) {
	s := detect(t, `{"id":1,"score":2.5,"name":"a"}
{"name":"b","id":2,"score":3,"extra":true}
`, DetectOptions{})
	if s.Format != scan.FormatNDJSON {
		t.Fatalf("Format = %v, want ndjson", s.Format)
	}
	want := []Column{
		{Name: "id", Type: Int64, Lo: 1, Hi: 2},
		{Name: "score", Type: Float64},
		{Name: "name", Type: String},
		{Name: "extra", Type: String},
	}
	if len(s.Columns) != len(want) {
		t.Fatalf("columns = %v, want %v", s.Columns, want)
	}
	for i, c := range s.Columns {
		if c != want[i] {
			t.Errorf("col %d = %v, want %v", i, c, want[i])
		}
	}
	if got := s.FieldNames(); got[0] != "id" || got[3] != "extra" {
		t.Errorf("FieldNames = %v", got)
	}
}

func TestDetectNDJSONTypeWidening(t *testing.T) {
	s := detect(t, `{"v":1}
{"v":2.5}
{"v":"three"}
`, DetectOptions{})
	if s.Format != scan.FormatNDJSON || len(s.Columns) != 1 || s.Columns[0].Type != String {
		t.Fatalf("schema = %v (format %v)", s.Columns, s.Format)
	}
}

func TestDetectCSVStaysCSV(t *testing.T) {
	s := detect(t, "1,2\n3,4\n", DetectOptions{})
	if s.Format != scan.FormatCSV {
		t.Fatalf("Format = %v, want csv", s.Format)
	}
}
