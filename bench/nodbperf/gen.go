package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
)

// The generator is the benchmark's oracle: it writes the raw file from
// values it keeps in memory and computes every expected answer from those
// values, so it shares no tokenizer and no value semantics with the engine.

const (
	permCols  = 12 // a1..a12: permutations of 0..rows-1 in the base rows
	totalCols = 16
	groups14  = 64
)

// table holds the generated values of `wide`: rows base rows (written to
// the file at set-up) followed by tail rows (appended by adaptive-seq).
type table struct {
	rows, tail int
	perm       [permCols][]int64 // a1..a12, len rows+tail
	inv        [permCols][]int32 // base rows only: value -> row
	k13        []int64           // a13 in thousandths; the text is k/1000 "." k%1000
	a14, a15   []int64
	a16        []string
	baseBytes  int64
	tailCSV    []byte
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func genTable(seed uint64, rows, tail int) *table {
	r := newRNG(seed, 1)
	n := rows + tail
	t := &table{rows: rows, tail: tail}
	for c := range t.perm {
		col := make([]int64, n)
		for i := 0; i < rows; i++ {
			col[i] = int64(i)
		}
		r.Shuffle(rows, func(i, j int) { col[i], col[j] = col[j], col[i] })
		inv := make([]int32, rows)
		for i := 0; i < rows; i++ {
			inv[col[i]] = int32(i)
		}
		// Appended rows draw from the same range, so they qualify for
		// the re-run predicates and a wrong tail extension shows.
		for i := rows; i < n; i++ {
			col[i] = r.Int64N(int64(rows))
		}
		t.perm[c], t.inv[c] = col, inv
	}
	t.k13 = make([]int64, n)
	t.a14 = make([]int64, n)
	t.a15 = make([]int64, n)
	t.a16 = make([]string, n)
	zipf := rand.NewZipf(r, 1.2, 1, 9999)
	var word [8]byte
	for i := 0; i < n; i++ {
		t.k13[i] = r.Int64N(1_000_000)
		t.a14[i] = r.Int64N(groups14)
		t.a15[i] = int64(zipf.Uint64())
		l := 4 + r.IntN(5)
		for j := 0; j < l; j++ {
			word[j] = byte('a' + r.IntN(26))
		}
		t.a16[i] = string(word[:l])
	}
	return t
}

func (t *table) appendRow(b []byte, i int) []byte {
	for c := range t.perm {
		b = strconv.AppendInt(b, t.perm[c][i], 10)
		b = append(b, ',')
	}
	k := t.k13[i]
	b = strconv.AppendInt(b, k/1000, 10)
	b = append(b, '.', byte('0'+k/100%10), byte('0'+k/10%10), byte('0'+k%10), ',')
	b = strconv.AppendInt(b, t.a14[i], 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, t.a15[i], 10)
	b = append(b, ',')
	b = append(b, t.a16[i]...)
	return append(b, '\n')
}

// writeCSV writes the base rows to path (headerless) and keeps the text
// of the tail rows for the append step.
func (t *table) writeCSV(path string) error {
	b := make([]byte, 0, t.rows*120)
	for i := 0; i < t.rows; i++ {
		b = t.appendRow(b, i)
	}
	t.baseBytes = int64(len(b))
	if err := writeSynced(path, b); err != nil {
		return err
	}
	b = b[:0]
	for i := t.rows; i < t.rows+t.tail; i++ {
		b = t.appendRow(b, i)
	}
	t.tailCSV = append([]byte(nil), b...)
	return nil
}

// writeSynced writes the file through to disk, so that the kernel's
// write-back of ~30 MB happens inside set-up and not, at a time of its own
// choosing, under the timed ops.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *table) f13(i int) float64 { return float64(t.k13[i]) / 1000 }

// eachIn calls fn for every row whose a(c+1) value lies in [lo, hi):
// base rows through the inverse permutation, tail rows by a linear pass.
func (t *table) eachIn(c int, lo, hi int64, withTail bool, fn func(row int)) {
	if lo < 0 {
		lo = 0
	}
	if hi > int64(t.rows) {
		hi = int64(t.rows)
	}
	for v := lo; v < hi; v++ {
		fn(int(t.inv[c][v]))
	}
	if withTail {
		col := t.perm[c]
		for i := t.rows; i < t.rows+t.tail; i++ {
			if col[i] >= lo && col[i] < hi {
				fn(i)
			}
		}
	}
}

// query is one generated statement with its expected answer.
type query struct {
	sql  string
	want [][]any // int64, float64 or string cells, rows in the order they must arrive
}

func name(c int) string { return "a" + strconv.Itoa(c+1) }

// coldQuery is the cold-csv statement; the literal sits near the middle
// so every op filters about half the rows.
func (t *table) coldQuery(r *rand.Rand) query {
	n := int64(t.rows)
	x := n*2/5 + r.Int64N(n/5)
	var sum, max int64
	t.eachIn(2, 0, x, false, func(i int) {
		sum += t.perm[6][i]
		if v := t.perm[11][i]; v > max {
			max = v
		}
	})
	return query{
		sql:  fmt.Sprintf("SELECT sum(a7), max(a12) FROM wide WHERE a3 < %d", x),
		want: [][]any{{sum, max}},
	}
}

// seqQuery is the paper's Q2 over columns (ci, cj): each range keeps
// sqrt(10%) of the rows, so the conjunction keeps about a tenth. grown is
// the same statement with its answer over base and appended rows.
func (t *table) seqQuery(r *rand.Rand, ci, cj int) (base, grown query) {
	n := int64(t.rows)
	w := int64(float64(n) * math.Sqrt(0.1))
	lo1, lo2 := r.Int64N(n-w), r.Int64N(n-w)
	base = query{
		sql: fmt.Sprintf("SELECT sum(%s), avg(%s) FROM wide WHERE %s > %d AND %s < %d AND %s > %d AND %s < %d",
			name(ci), name(cj), name(ci), lo1, name(ci), lo1+w, name(cj), lo2, name(cj), lo2+w),
	}
	grown = base
	for _, q := range []*query{&base, &grown} {
		var sum, sumJ, cnt int64
		t.eachIn(ci, lo1+1, lo1+w, q == &grown, func(i int) {
			if v := t.perm[cj][i]; v > lo2 && v < lo2+w {
				sum += t.perm[ci][i]
				sumJ += v
				cnt++
			}
		})
		q.want = [][]any{{sum, float64(sumJ) / float64(cnt)}}
	}
	return base, grown
}

// exportQuery is the stream-export statement: a third of the rows, four
// columns. The answer is checked as a row count plus a wrapping 64-bit sum
// of every value, which does not depend on row order.
func (t *table) exportQuery(r *rand.Rand) (q query, rows int64, sum uint64) {
	n := int64(t.rows)
	x := n*32/100 + r.Int64N(n*2/100)
	t.eachIn(2, 0, x, false, func(i int) {
		sum += uint64(t.perm[2][i] + t.perm[6][i] + t.perm[11][i] + t.perm[0][i])
	})
	q = query{sql: fmt.Sprintf("SELECT a3,a7,a12,a1 FROM wide WHERE a3 < %d", x)}
	return q, x, sum
}

// hotCols are the permutation columns of the hot-serve mix; with a13, a14
// and a15 they make the six columns nodbd keeps warm.
var hotCols = [3]int{0, 1, 4}

// hotQuery draws one statement of the hot-serve mix: 40 % 1 %-selective
// range aggregate, 20 % two-column conjunctive count, 15 % GROUP BY a14,
// 15 % ORDER BY ... LIMIT 10, 10 % point lookup. Literals are inlined so
// every SQL string is distinct.
func (t *table) hotQuery(r *rand.Rand) query {
	n := int64(t.rows)
	p := r.IntN(3)
	cp, cq := hotCols[p], hotCols[(p+1+r.IntN(2))%3]
	switch k := r.IntN(100); {
	case k < 40:
		w := n / 100
		lo := r.Int64N(n - w)
		var sum, cnt int64
		min15, max13 := int64(math.MaxInt64), int64(-1)
		t.eachIn(cp, lo, lo+w, false, func(i int) {
			sum += t.perm[cq][i]
			cnt++
			min15 = min(min15, t.a15[i])
			max13 = max(max13, t.k13[i])
		})
		return query{
			sql: fmt.Sprintf("SELECT sum(%s), count(*), min(a15), max(a13) FROM wide WHERE %s >= %d AND %s < %d",
				name(cq), name(cp), lo, name(cp), lo+w),
			want: [][]any{{sum, cnt, min15, float64(max13) / 1000}},
		}
	case k < 60:
		w := int64(float64(n) * math.Sqrt(0.1))
		lo1, lo2 := r.Int64N(n-w), r.Int64N(n-w)
		var cnt int64
		t.eachIn(cp, lo1+1, lo1+w, false, func(i int) {
			if v := t.perm[cq][i]; v > lo2 && v < lo2+w {
				cnt++
			}
		})
		return query{
			sql: fmt.Sprintf("SELECT count(*) FROM wide WHERE %s > %d AND %s < %d AND %s > %d AND %s < %d",
				name(cp), lo1, name(cp), lo1+w, name(cq), lo2, name(cq), lo2+w),
			want: [][]any{{cnt}},
		}
	case k < 75:
		x := n/20 + r.Int64N(n/10)
		var cnt, sum [groups14]int64
		t.eachIn(cp, 0, x, false, func(i int) {
			g := t.a14[i]
			cnt[g]++
			sum[g] += t.perm[cq][i]
		})
		q := query{
			sql: fmt.Sprintf("SELECT a14, count(*), sum(%s) FROM wide WHERE %s < %d GROUP BY a14 ORDER BY a14", name(cq), name(cp), x),
		}
		for g := range cnt {
			if cnt[g] > 0 {
				q.want = append(q.want, []any{int64(g), cnt[g], sum[g]})
			}
		}
		return q
	case k < 90:
		w := n / 100
		lo := r.Int64N(n - w)
		desc := r.IntN(2) == 1
		var hit []int
		t.eachIn(cp, lo, lo+w, false, func(i int) { hit = append(hit, i) })
		key := t.perm[cq]
		sort.Slice(hit, func(a, b int) bool { return (key[hit[a]] < key[hit[b]]) != desc })
		dir := ""
		if desc {
			dir = " DESC"
		}
		q := query{
			sql: fmt.Sprintf("SELECT %s, a15, a13 FROM wide WHERE %s >= %d AND %s < %d ORDER BY %s%s LIMIT 10",
				name(cq), name(cp), lo, name(cp), lo+w, name(cq), dir),
		}
		for _, i := range hit[:min(10, len(hit))] {
			q.want = append(q.want, []any{key[i], t.a15[i], t.f13(i)})
		}
		return q
	default:
		v := r.Int64N(n)
		i := int(t.inv[cp][v])
		return query{
			sql:  fmt.Sprintf("SELECT %s, a13, a14, a15 FROM wide WHERE %s = %d", name(cq), name(cp), v),
			want: [][]any{{t.perm[cq][i], t.f13(i), t.a14[i], t.a15[i]}},
		}
	}
}

// warmQuery touches all six hot columns, so one pass over the file loads
// everything hot-serve reads.
const warmQuery = "SELECT sum(a1), sum(a2), sum(a5), max(a13), max(a14), max(a15) FROM wide"

func (t *table) warmAnswer() [][]any {
	var s1, s2, s5, m13, m14, m15 int64
	for i := 0; i < t.rows; i++ {
		s1 += t.perm[0][i]
		s2 += t.perm[1][i]
		s5 += t.perm[4][i]
		m13 = max(m13, t.k13[i])
		m14 = max(m14, t.a14[i])
		m15 = max(m15, t.a15[i])
	}
	return [][]any{{s1, s2, s5, float64(m13) / 1000, m14, m15}}
}

// matchRows compares an answer with the oracle's. Floats match within a
// relative 1e-9, which allows the engine any summation order.
func matchRows(want, got [][]any) error {
	if len(want) != len(got) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("row %d: got %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			ok := w == g
			if wf, isF := w.(float64); isF {
				gf, isGF := g.(float64)
				ok = isGF && math.Abs(wf-gf) <= 1e-9*math.Max(math.Abs(wf), 1)
			}
			if !ok {
				return fmt.Errorf("row %d col %d: got %v (%T), want %v (%T)", i, j, g, g, w, w)
			}
		}
	}
	return nil
}
