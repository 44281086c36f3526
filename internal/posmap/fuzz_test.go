package posmap

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"nodb/internal/intervals"
)

// fuzzRows bounds the rows a fuzzed step writes: five blocks, the last
// partial.
const fuzzRows = 4*blockRows + 700

// fuzzAcct is an Accountant that keeps the bytes it hears.
type fuzzAcct struct{ bytes int64 }

func (a *fuzzAcct) AddBytes(d int64) { a.bytes += d }
func (a *fuzzAcct) SetBytes(n int64) { a.bytes = n }
func (a *fuzzAcct) Touch()           {}

// fuzzInput hands out the fuzzer's bytes as small numbers, zeros once
// they run out.
type fuzzInput []byte

func (in *fuzzInput) byte() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// n returns a number in [0, max) from two bytes.
func (in *fuzzInput) n(max int) int { return (in.byte()<<8 | in.byte()) % max }

// offsets returns the positions of rows start..start+n-1 in one of four
// shapes: rows of ~37 B; the same with one 40 KB row, whose jump no int16
// residual spans; a file past 4 GiB; or offsets 8 GiB apart, which no
// narrow delta spans. salt keeps one step's offsets apart from another's.
func (in *fuzzInput) offsets(start int64, n int, salt int64) []int64 {
	shape, long := in.byte()%4, start+int64(in.n(n))
	offs := make([]int64, n)
	for i := range offs {
		row := start + int64(i)
		off := row*37 + salt
		switch shape {
		case 1:
			if row > long {
				off += 40_000
			}
		case 2:
			off += 5 << 30
		case 3:
			off = row<<33 + salt
		}
		offs[i] = off
	}
	return offs
}

// FuzzPosMap runs a random sequence of RecordRows, RecordRun, InstallRun (its
// run written by writers split at random seams), LoadColumn and Drop, and
// after every step compares Lookup, Offsets, Pairs, Covers and Entries
// with a map[int64]int64 per column, and MemSize with both the
// accountant's bytes and the sum of the map's slots, blocks and coverage
// intervals.
func FuzzPosMap(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 8, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 12, 0, 1, 0, 3, 2, 0, 0, 0, 0, 0, 0, 9, 0, 0, 1, 0, 0, 7})
	f.Add([]byte{3, 0, 2, 100, 6, 5, 16, 0, 1, 0, 200, 40, 1, 0, 0, 3, 20, 1, 2, 9})
	f.Add([]byte{2, 2, 0, 0, 0, 40, 3, 0, 2, 0, 4, 0, 3, 1, 17, 0, 2, 3, 2, 1, 0, 0, 9, 9})
	f.Add([]byte{4, 0, 0, 0, 14, 0, 1, 0, 2, 3, 0, 3, 5, 0, 9, 1, 6, 1, 0, 0, 7, 0, 2, 1, 1, 0, 0, 0, 3, 1, 5, 0, 0})
	f.Add([]byte{6, 2, 0, 9, 3, 0, 1, 0, 1, 0, 7, 0, 9, 4, 0, 0, 1, 0, 8, 0, 7, 2, 5, 1, 0, 0, 30, 2, 0, 0, 2, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		var acct fuzzAcct
		m := New(0, nil)
		m.SetAccountant(&acct)
		model := map[int]map[int64]int64{}
		for step := 0; step < 24 && len(in) > 0; step++ {
			op, col, salt := in.byte()%8, in.byte()%3, int64(step+1)<<20
			if model[col] == nil {
				model[col] = map[int64]int64{}
			}
			switch op {
			case 0, 1: // RecordRows of ascending rows, mostly scattered
				start, k := int64(in.n(fuzzRows)), 1+in.byte()%32
				rows := []int64{start}
				for len(rows) < k {
					next := rows[len(rows)-1] + 1
					if in.byte()%3 != 0 {
						next += int64(in.n(300))
					}
					if next >= fuzzRows {
						break
					}
					rows = append(rows, next)
				}
				span := in.offsets(start, int(rows[len(rows)-1]-start)+1, salt)
				offs := make([]int64, len(rows))
				for i, row := range rows {
					offs[i] = span[row-start]
				}
				m.RecordRows(col, rows, offs)
				for i, row := range rows {
					model[col][row] = offs[i]
				}
			case 2, 3: // RecordRun
				start := int64(in.n(fuzzRows))
				offs := in.offsets(start, 1+in.n(int(fuzzRows-start)), salt)
				m.RecordRun(col, start, offs)
				for i, off := range offs {
					model[col][start+int64(i)] = off
				}
			case 4, 5: // InstallRun of rows 0..n-1, written in portions
				n := 1 + in.n(fuzzRows)
				offs := in.offsets(0, n, salt)
				seams := []int{0, n}
				for range in.byte() % 4 {
					seams = append(seams, in.n(n))
				}
				slices.Sort(seams)
				r := NewRun(int64(n))
				for p := range len(seams) - 1 {
					w := r.Writer()
					for row := seams[p]; row < seams[p+1]; row++ {
						w.Set(int64(row), offs[row])
					}
					w.Flush()
				}
				m.InstallRun(col, r, int64(n))
				for i, off := range offs {
					model[col][int64(i)] = off
				}
			case 6: // LoadColumn of a few runs, into an empty column only
				var rows, offs []int64
				for row := int64(in.n(blockRows)); row < fuzzRows && len(rows) < 3*blockRows; {
					n := 1 + in.n(2*blockRows)
					for i, off := range in.offsets(row, n, salt) {
						rows, offs = append(rows, row+int64(i)), append(offs, off)
					}
					row += int64(n + 1 + in.n(blockRows))
				}
				m.LoadColumn(col, rows, offs)
				if len(model[col]) == 0 {
					for i, row := range rows {
						model[col][row] = offs[i]
					}
				}
			case 7:
				m.Drop()
				model = map[int]map[int64]int64{col: {}}
			}
			if err := checkFuzz(m, &acct, model, &in); err != "" {
				t.Fatalf("step %d (op %d, col %d): %s", step, op, col, err)
			}
		}
	})
}

// checkFuzz compares m with the model and its bytes with the accountant's
// and its blocks', and returns what disagrees, or "".
func checkFuzz(m *Map, acct *fuzzAcct, model map[int]map[int64]int64, in *fuzzInput) string {
	total := 0
	for col := range 3 {
		want := model[col]
		total += len(want)
		for row := int64(0); row < fuzzRows+blockRows; row++ {
			wantOff, wantOK := want[row]
			if off, ok := m.Lookup(col, row); ok != wantOK || off != wantOff {
				return fmt.Sprintf("Lookup(%d,%d) = %d,%v want %d,%v", col, row, off, ok, wantOff, wantOK)
			}
		}
		wantRows := slices.Sorted(maps.Keys(want))
		wantOffs := make([]int64, len(wantRows))
		for i, row := range wantRows {
			wantOffs[i] = want[row]
		}
		if rows, offs := m.Pairs(col); !slices.Equal(rows, wantRows) || !slices.Equal(offs, wantOffs) {
			return fmt.Sprintf("Pairs(%d): %d rows, want %d", col, len(rows), len(wantRows))
		}
		for range 4 {
			lo := int64(in.n(fuzzRows))
			hi := lo + 1 + int64(in.n(2*blockRows))
			covered := true
			for row := lo; row < hi && covered; row++ {
				_, covered = want[row]
			}
			if m.Covers(col, lo, hi) != covered {
				return fmt.Sprintf("Covers(%d,%d,%d) = %v", col, lo, hi, !covered)
			}
			dst := make([]int64, hi-lo)
			if ok := m.Offsets(col, lo, dst); ok != covered {
				return fmt.Sprintf("Offsets(%d,%d,%d) = %v", col, lo, hi, ok)
			}
			for i := range dst {
				if covered && dst[i] != want[lo+int64(i)] {
					return fmt.Sprintf("Offsets(%d,%d,..)[%d] = %d, want %d", col, lo, i, dst[i], want[lo+int64(i)])
				}
			}
		}
	}
	if m.Entries() != total {
		return fmt.Sprintf("Entries = %d, want %d", m.Entries(), total)
	}
	if got, sum := m.MemSize(), blockBytes(m); got != acct.bytes || got != sum {
		return fmt.Sprintf("MemSize = %d, the accountant holds %d, the slots and blocks sum to %d", got, acct.bytes, sum)
	}
	return ""
}

// blockBytes sums m's column slots, block index slots, blocks and
// coverage intervals, and checks each sealed block against its column's
// coverage: its recorded rows are exactly its first len(res).
func blockBytes(m *Map) int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 8 * int64(len(m.cols))
	for _, c := range m.cols {
		if c == nil {
			continue
		}
		n += 8*int64(len(c.blocks)) + intervalCost*int64(c.cov.Len())
		for bi, b := range c.blocks {
			if b == nil {
				continue
			}
			n += b.cost()
			if b.res == nil {
				continue
			}
			lo := int64(bi) << blockShift
			run, rest := intervals.Interval{Lo: lo, Hi: lo + int64(len(b.res))}, intervals.Interval{Lo: lo + int64(len(b.res)), Hi: lo + blockRows}
			if gaps := c.cov.Missing(rest); !c.cov.Covers(run) || !rest.Empty() && !slices.Equal(gaps, []intervals.Interval{rest}) {
				return -1
			}
		}
	}
	return n
}
