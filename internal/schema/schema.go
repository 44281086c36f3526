// Package schema implements automatic schema discovery over flat files
// (paper §5.6): delimiter sniffing, header detection, and type inference.
// The task runs once, when a file is first linked (or first queried), by
// sampling a prefix of the file.
package schema

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"nodb/internal/errs"
	"nodb/internal/scan"
	"nodb/internal/vfs"
)

// Type is an attribute's inferred data type.
type Type int

// Supported attribute types.
const (
	Int64 Type = iota
	Float64
	String
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// widen returns the narrowest type that can represent both a and b.
func widen(a, b Type) Type {
	if a == b {
		return a
	}
	if a == String || b == String {
		return String
	}
	return Float64 // int + float
}

// Column describes one attribute.
type Column struct {
	Name string
	Type Type
	// Lo and Hi bound the values of an Int64 column in the detection
	// sample (0 for other types). Loads parse the column at the narrowest
	// width that holds them, and widen when the file strays outside.
	Lo, Hi int64
}

// intRange folds the integer fields of one sampled column.
type intRange struct {
	lo, hi int64
	n      int
}

func (r *intRange) add(b []byte) {
	v, err := scan.ParseInt64(b)
	if err != nil {
		return
	}
	if r.n == 0 || v < r.lo {
		r.lo = v
	}
	if r.n == 0 || v > r.hi {
		r.hi = v
	}
	r.n++
}

// Schema describes a flat file's structure.
type Schema struct {
	// Format is the file's on-disk layout. Delimiter and HasHeader only
	// apply to CSV; NDJSON columns are located by name per row.
	Format    scan.Format
	Delimiter byte
	HasHeader bool
	Columns   []Column
}

// FieldNames returns the column names in attribute order — the key set an
// NDJSON scan locates fields by.
func (s *Schema) FieldNames() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// NumCols returns the number of attributes.
func (s *Schema) NumCols() int { return len(s.Columns) }

// ColIndex returns the index of the named column, or -1. Names compare
// case-insensitively.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = fmt.Sprintf("%s %s", c.Name, c.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// DetectOptions tunes detection.
type DetectOptions struct {
	// SampleBytes is how much of the file prefix to inspect (default 256KiB).
	SampleBytes int
	// SampleRows caps the rows inspected for type inference (default 1000).
	SampleRows int
	// Delimiter forces the delimiter instead of sniffing.
	Delimiter byte
	// Format forces the file format instead of sniffing: "csv" skips the
	// NDJSON probe, "ndjson" skips delimiter sniffing. Empty auto-detects;
	// anything else is an error.
	Format string
	// FS is the filesystem the sample is read through; nil means the
	// real disk.
	FS vfs.FS
}

func (o DetectOptions) sampleBytes() int {
	if o.SampleBytes <= 0 {
		return 256 << 10
	}
	return o.SampleBytes
}

func (o DetectOptions) sampleRows() int {
	if o.SampleRows <= 0 {
		return 1000
	}
	return o.SampleRows
}

var candidateDelims = []byte{',', '\t', ';', '|'}

// Detect infers the schema of the file at path by sampling its prefix.
func Detect(path string, opts DetectOptions) (*Schema, error) {
	f, err := vfs.Default(opts.FS).Open(path)
	if err != nil {
		return nil, errs.Wrap(errs.ErrRawIO, "schema detect", path, err)
	}
	defer f.Close()
	buf := make([]byte, opts.sampleBytes())
	n, err := io.ReadFull(f, buf)
	// A short sample (ErrUnexpectedEOF with bytes read) is normal for
	// small files; the same error with zero bytes is a read fault.
	if err != nil && err != io.EOF && !(err == io.ErrUnexpectedEOF && n > 0) {
		return nil, errs.Wrap(errs.ErrRawIO, "schema detect", path, err)
	}
	return DetectBytes(buf[:n], opts)
}

// DetectBytes infers a schema from a sample of file content. A sample
// whose first non-whitespace byte opens a JSON object is detected as
// NDJSON (one object per line, columns named by keys); everything else
// goes through delimiter sniffing as CSV.
func DetectBytes(sample []byte, opts DetectOptions) (*Schema, error) {
	lines := splitSampleLines(sample, opts.sampleRows()+1)
	if len(lines) == 0 {
		return nil, fmt.Errorf("schema: empty file")
	}

	switch opts.Format {
	case "ndjson":
		return detectNDJSON(lines)
	case "csv":
		// fall through to delimiter sniffing
	case "":
		if opts.Delimiter == 0 && scan.LooksLikeJSONObject(sample) {
			return detectNDJSON(lines)
		}
	default:
		return nil, fmt.Errorf("schema: unknown format %q (want \"csv\" or \"ndjson\")", opts.Format)
	}

	delim := opts.Delimiter
	if delim == 0 {
		delim = sniffDelimiter(lines)
	}

	first := splitFields(lines[0], delim)
	ncols := len(first)
	if ncols == 0 {
		return nil, fmt.Errorf("schema: could not tokenize first row")
	}

	// Infer types over data rows, tentatively treating row 0 as data.
	sawData := false
	ranges := make([]intRange, ncols)
	rowType := func(fields [][]byte, acc []Type) bool {
		if len(fields) != ncols {
			return false
		}
		for i, fb := range fields {
			t := fieldType(fb)
			acc[i] = widen(acc[i], t)
			if t == Int64 {
				ranges[i].add(fb)
			}
		}
		return true
	}

	restTypes := make([]Type, ncols)
	for _, l := range lines[1:] {
		fields := splitFields(l, delim)
		if rowType(fields, restTypes) {
			sawData = true
		}
	}

	// Header heuristic: the first row is a header when its fields are all
	// non-numeric strings while subsequent rows contain numeric data, or
	// when every first-row field names itself uniquely and is not
	// parsable under the rest's types.
	hasHeader := false
	if sawData {
		firstAllString := true
		for _, fb := range first {
			if fieldType(fb) != String {
				firstAllString = false
				break
			}
		}
		restAnyNumeric := false
		for _, tp := range restTypes {
			if tp != String {
				restAnyNumeric = true
				break
			}
		}
		hasHeader = firstAllString && restAnyNumeric
	}

	var cols []Column
	if hasHeader {
		cols = make([]Column, ncols)
		for i, fb := range first {
			name := strings.TrimSpace(string(fb))
			if name == "" {
				name = fmt.Sprintf("a%d", i+1)
			}
			cols[i] = Column{Name: name, Type: restTypes[i]}
		}
	} else {
		// Row 0 is data: fold it into the types.
		all := restTypes
		if !sawData {
			all = make([]Type, ncols)
		}
		rowType(first, all)
		cols = make([]Column, ncols)
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("a%d", i+1), Type: all[i]}
		}
	}
	for i := range cols {
		if cols[i].Type == Int64 {
			cols[i].Lo, cols[i].Hi = ranges[i].lo, ranges[i].hi
		}
	}
	return &Schema{Delimiter: delim, HasHeader: hasHeader, Columns: cols}, nil
}

// detectNDJSON infers an NDJSON schema: columns are the keys of the
// sampled objects in first-appearance order; types come from the raw value
// tokens (integers narrow to Int64, other numbers to Float64, everything
// else — strings, literals, nested composites — is String).
func detectNDJSON(lines [][]byte) (*Schema, error) {
	var cols []Column
	var ranges []intRange
	index := map[string]int{}
	for _, l := range lines {
		if len(l) == 0 {
			continue
		}
		err := scan.WalkJSONObject(l, func(key string, value []byte) bool {
			t := jsonFieldType(value)
			i, ok := index[key]
			if ok {
				cols[i].Type = widen(cols[i].Type, t)
			} else {
				i = len(cols)
				index[key] = i
				cols = append(cols, Column{Name: key, Type: t})
				ranges = append(ranges, intRange{})
			}
			if t == Int64 {
				ranges[i].add(value)
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: no keys in NDJSON sample")
	}
	for i := range cols {
		if cols[i].Type == Int64 {
			cols[i].Lo, cols[i].Hi = ranges[i].lo, ranges[i].hi
		}
	}
	return &Schema{Format: scan.FormatNDJSON, Columns: cols}, nil
}

// jsonFieldType classifies a raw JSON value token.
func jsonFieldType(b []byte) Type {
	if len(b) == 0 {
		return String
	}
	if b[0] == '-' || (b[0] >= '0' && b[0] <= '9') {
		if scan.LooksLikeInt(b) {
			return Int64
		}
		if scan.LooksLikeFloat(b) {
			return Float64
		}
	}
	return String
}

// fieldType classifies a single field.
func fieldType(b []byte) Type {
	if scan.LooksLikeInt(b) {
		return Int64
	}
	if scan.LooksLikeFloat(b) {
		return Float64
	}
	return String
}

// splitSampleLines splits the sample into at most maxLines complete lines;
// an incomplete trailing line (cut by the sample window) is dropped unless
// it is the only line.
func splitSampleLines(sample []byte, maxLines int) [][]byte {
	var lines [][]byte
	for len(sample) > 0 && len(lines) < maxLines {
		i := bytes.IndexByte(sample, '\n')
		if i < 0 {
			if len(lines) == 0 {
				lines = append(lines, trimCR(sample))
			}
			break
		}
		lines = append(lines, trimCR(sample[:i]))
		sample = sample[i+1:]
	}
	return lines
}

func trimCR(b []byte) []byte {
	if len(b) > 0 && b[len(b)-1] == '\r' {
		return b[:len(b)-1]
	}
	return b
}

func splitFields(line []byte, delim byte) [][]byte {
	var out [][]byte
	for {
		i := bytes.IndexByte(line, delim)
		if i < 0 {
			out = append(out, line)
			return out
		}
		out = append(out, line[:i])
		line = line[i+1:]
	}
}

// sniffDelimiter picks the candidate delimiter with the most consistent
// nonzero per-line count across the sample.
func sniffDelimiter(lines [][]byte) byte {
	best := byte(',')
	bestScore := -1
	for _, d := range candidateDelims {
		counts := map[int]int{}
		for _, l := range lines {
			if n := bytes.Count(l, []byte{d}); n > 0 {
				counts[n]++
			}
		}
		score := 0
		for _, c := range counts {
			if c > score {
				score = c
			}
		}
		// Prefer a delimiter that appears consistently; ties go to the
		// earlier candidate (comma first).
		if score > bestScore {
			best, bestScore = d, score
		}
	}
	return best
}
