// Package csvgen generates the synthetic flat files used throughout the
// reproduction.
//
// The paper's experiments use tables whose columns hold "unique integers
// randomly distributed in the columns" (§2), in CSV format. This package
// produces exactly that — a deterministic permutation of 0..n-1 per column —
// plus a few richer generators (skewed integers, floats, strings, mixed
// schemas) used by the examples and by schema-detection tests.
package csvgen

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

// Format selects the output encoding.
type Format int

// Output encodings.
const (
	// FormatCSV emits delimiter-separated rows (the default).
	FormatCSV Format = iota
	// FormatNDJSON emits one JSON object per line with fields a1, a2, ...
	// Field names are self-describing, so Header is ignored.
	FormatNDJSON
)

// Spec describes one synthetic table.
type Spec struct {
	// Rows is the number of tuples.
	Rows int
	// Cols is the number of attributes.
	Cols int
	// Seed makes generation deterministic; different columns derive
	// distinct sub-seeds from it.
	Seed int64
	// Header, when true, emits a first line "a1,a2,...".
	Header bool
	// Delimiter defaults to ','.
	Delimiter byte
	// ColSpecs optionally overrides the per-column value generator; when
	// shorter than Cols the remaining columns use UniqueInts.
	ColSpecs []ColSpec
	// Format selects the output encoding (default FormatCSV).
	Format Format
}

// Kind selects a per-column value distribution.
type Kind int

// Column value distributions.
const (
	// UniqueInts is a random permutation of 0..Rows-1 (the paper's
	// distribution: selectivity of a range predicate equals its width
	// divided by Rows).
	UniqueInts Kind = iota
	// UniformInts draws uniform integers in [0, Max).
	UniformInts
	// ZipfInts draws skewed integers in [0, Max) (exponent S, v=1).
	ZipfInts
	// Floats draws uniform float64 in [0, Max).
	Floats
	// Strings draws words of 3..12 lowercase letters.
	Strings
	// SequentialInts emits 0,1,2,... (useful for 1:1 join keys).
	SequentialInts
)

// ColSpec configures one column's generator.
type ColSpec struct {
	Kind Kind
	Max  int64   // for UniformInts, ZipfInts, Floats
	S    float64 // zipf exponent, default 1.2
}

func (s Spec) delim() byte {
	if s.Delimiter == 0 {
		return ','
	}
	return s.Delimiter
}

func (s Spec) colSpec(i int) ColSpec {
	if i < len(s.ColSpecs) {
		return s.ColSpecs[i]
	}
	return ColSpec{Kind: UniqueInts}
}

// columnGen produces the value of one column for successive rows.
type columnGen interface {
	next(buf []byte) []byte // append the next value's text to buf
}

type permGen struct{ perm []int64 }

func (g *permGen) next(buf []byte) []byte {
	v := g.perm[0]
	g.perm = g.perm[1:]
	return strconv.AppendInt(buf, v, 10)
}

type uniformGen struct {
	rng *rand.Rand
	max int64
}

func (g *uniformGen) next(buf []byte) []byte {
	return strconv.AppendInt(buf, g.rng.Int63n(g.max), 10)
}

type zipfGen struct{ z *rand.Zipf }

func (g *zipfGen) next(buf []byte) []byte {
	return strconv.AppendUint(buf, g.z.Uint64(), 10)
}

type floatGen struct {
	rng *rand.Rand
	max float64
}

func (g *floatGen) next(buf []byte) []byte {
	return strconv.AppendFloat(buf, g.rng.Float64()*g.max, 'f', 4, 64)
}

type stringGen struct{ rng *rand.Rand }

func (g *stringGen) next(buf []byte) []byte {
	n := 3 + g.rng.Intn(10)
	for i := 0; i < n; i++ {
		buf = append(buf, byte('a'+g.rng.Intn(26)))
	}
	return buf
}

type seqGen struct{ next64 int64 }

func (g *seqGen) next(buf []byte) []byte {
	v := g.next64
	g.next64++
	return strconv.AppendInt(buf, v, 10)
}

func (s Spec) newGen(col int) columnGen {
	cs := s.colSpec(col)
	rng := rand.New(rand.NewSource(s.Seed*1315423911 + int64(col)*2654435761 + 12345))
	switch cs.Kind {
	case UniqueInts:
		perm := make([]int64, s.Rows)
		for i := range perm {
			perm[i] = int64(i)
		}
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		return &permGen{perm: perm}
	case UniformInts:
		m := cs.Max
		if m <= 0 {
			m = int64(s.Rows)
		}
		return &uniformGen{rng: rng, max: m}
	case ZipfInts:
		sexp := cs.S
		if sexp <= 1 {
			sexp = 1.2
		}
		m := cs.Max
		if m <= 0 {
			m = int64(s.Rows)
		}
		return &zipfGen{z: rand.NewZipf(rng, sexp, 1, uint64(m-1))}
	case Floats:
		m := float64(cs.Max)
		if m <= 0 {
			m = float64(s.Rows)
		}
		return &floatGen{rng: rng, max: m}
	case Strings:
		return &stringGen{rng: rng}
	case SequentialInts:
		return &seqGen{}
	default:
		panic(fmt.Sprintf("csvgen: unknown column kind %d", cs.Kind))
	}
}

// Write generates the table described by s onto w.
func Write(w io.Writer, s Spec) error {
	if s.Rows < 0 || s.Cols <= 0 {
		return fmt.Errorf("csvgen: invalid spec rows=%d cols=%d", s.Rows, s.Cols)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if s.Format == FormatNDJSON {
		return writeNDJSON(bw, s)
	}
	d := s.delim()
	if s.Header {
		for c := 0; c < s.Cols; c++ {
			if c > 0 {
				if err := bw.WriteByte(d); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "a%d", c+1); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	gens := make([]columnGen, s.Cols)
	for c := range gens {
		gens[c] = s.newGen(c)
	}
	buf := make([]byte, 0, 256)
	for r := 0; r < s.Rows; r++ {
		buf = buf[:0]
		for c := 0; c < s.Cols; c++ {
			if c > 0 {
				buf = append(buf, d)
			}
			buf = gens[c].next(buf)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeNDJSON emits one {"a1":v,...} object per line. Generated string
// values are lowercase letters, so quoting needs no escaping; numeric
// kinds emit their text unquoted (valid JSON numbers).
func writeNDJSON(bw *bufio.Writer, s Spec) error {
	gens := make([]columnGen, s.Cols)
	quoted := make([]bool, s.Cols)
	for c := range gens {
		gens[c] = s.newGen(c)
		quoted[c] = s.colSpec(c).Kind == Strings
	}
	buf := make([]byte, 0, 256)
	for r := 0; r < s.Rows; r++ {
		buf = append(buf[:0], '{')
		for c := 0; c < s.Cols; c++ {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '"', 'a')
			buf = strconv.AppendInt(buf, int64(c+1), 10)
			buf = append(buf, '"', ':')
			if quoted[c] {
				buf = append(buf, '"')
				buf = gens[c].next(buf)
				buf = append(buf, '"')
			} else {
				buf = gens[c].next(buf)
			}
		}
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile generates the table into path, creating parent directories.
func WriteFile(path string, s Spec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// EnsureFile generates the table into path only if it does not already
// exist with a non-zero size. The benchmark harness uses it to share data
// files between runs.
func EnsureFile(path string, s Spec) error {
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return nil
	}
	return WriteFile(path, s)
}
