package baseline

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// HashJoinScript emulates the paper's "hash join implementation in Awk"
// (§2.2): scan the left file into an in-memory hash table keyed on its
// join attribute, then stream the right file probing it. Both files are
// re-read and re-parsed from scratch; nothing survives the query. The
// result view carries the requested columns of both sides (tab 0 = left,
// tab 1 = right).
func HashJoinScript(left, right Table, leftKey, rightKey int, leftCols, rightCols []int, counters *metrics.Counters) (*exec.View, error) {
	lv, err := AwkScan(left, unionCols(leftCols, []int{leftKey}), expr.Conjunction{}, counters, 0)
	if err != nil {
		return nil, err
	}
	rv, err := AwkScan(right, unionCols(rightCols, []int{rightKey}), expr.Conjunction{}, counters, 1)
	if err != nil {
		return nil, err
	}
	// The join builds on its right input, so the left file goes there.
	return exec.DrainView(exec.NewHashJoinOp(exec.NewViewScan(rv, 0), exec.NewViewScan(lv, 0),
		exec.ColKey{Tab: 1, Col: rightKey}, exec.ColKey{Tab: 0, Col: leftKey}, 0))
}

// SortMergeJoinScript emulates "sort the data (using the Unix sort tool)
// and then implement a merge join in Awk" (§2.2): each input is parsed,
// sorted on the join key, written back to disk as a sorted temp file (the
// Unix sort's output), re-read, and merge-joined. The temp-file round
// trip is the honest cost of the pipeline the paper describes.
func SortMergeJoinScript(left, right Table, leftKey, rightKey int, leftCols, rightCols []int, tmpDir string, counters *metrics.Counters) (*exec.View, error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	lp, err := sortFile(left, leftKey, filepath.Join(tmpDir, "left.sorted"), counters)
	if err != nil {
		return nil, err
	}
	defer os.Remove(lp.Path)
	rp, err := sortFile(right, rightKey, filepath.Join(tmpDir, "right.sorted"), counters)
	if err != nil {
		return nil, err
	}
	defer os.Remove(rp.Path)

	lv, err := AwkScan(lp, unionCols(leftCols, []int{leftKey}), expr.Conjunction{}, counters, 0)
	if err != nil {
		return nil, err
	}
	rv, err := AwkScan(rp, unionCols(rightCols, []int{rightKey}), expr.Conjunction{}, counters, 1)
	if err != nil {
		return nil, err
	}
	return mergeJoin(lv, rv, exec.ColKey{Tab: 0, Col: leftKey}, exec.ColKey{Tab: 1, Col: rightKey})
}

// mergeJoin performs an inner equi-join by sorting both inputs on the key
// and merging — the paper's §2.2 "sort the data ... and then implement a
// merge join" comparator. Only int64 keys are supported (the experiment's
// keys are unique integers).
func mergeJoin(left, right *exec.View, lkey, rkey exec.ColKey) (*exec.View, error) {
	lc, rc := left.Col(lkey), right.Col(rkey)
	if lc == nil || rc == nil {
		return nil, fmt.Errorf("baseline: join keys %v/%v not in views", lkey, rkey)
	}
	if lc.Typ != schema.Int64 || rc.Typ != schema.Int64 {
		return nil, fmt.Errorf("baseline: merge join requires int64 keys")
	}
	lperm := sortedPerm(lc.Ints)
	rperm := sortedPerm(rc.Ints)

	var lIdx, rIdx []int32
	i, j := 0, 0
	for i < len(lperm) && j < len(rperm) {
		lv, rv := lc.Ints[lperm[i]], rc.Ints[rperm[j]]
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Emit the cross product of the equal runs.
			i2 := i
			for i2 < len(lperm) && lc.Ints[lperm[i2]] == lv {
				i2++
			}
			j2 := j
			for j2 < len(rperm) && rc.Ints[rperm[j2]] == rv {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					lIdx = append(lIdx, lperm[a])
					rIdx = append(rIdx, rperm[b])
				}
			}
			i, j = i2, j2
		}
	}
	out := exec.NewView()
	gatherSide(out, left, lIdx)
	gatherSide(out, right, rIdx)
	return out, nil
}

func sortedPerm(vals []int64) []int32 {
	perm := make([]int32, len(vals))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return vals[perm[a]] < vals[perm[b]] })
	return perm
}

// gatherSide adds every column of src to out, holding the rows idx.
func gatherSide(out, src *exec.View, idx []int32) {
	for k, c := range src.Cols {
		oc := storage.NewDense(c.Typ, len(idx))
		for _, i := range idx {
			oc.Append(c.Value(int(i)))
		}
		out.AddCol(k, oc)
	}
}

// sortFile reads a whole flat file, sorts its rows by the integer key
// column, and writes the sorted rows to outPath (emulating `sort -t, -k`).
func sortFile(t Table, key int, outPath string, counters *metrics.Counters) (Table, error) {
	// Workers 1: the handler appends to a shared slice without locks (it
	// emulates a sequential sort tool) and must not inherit the
	// parallel-by-default scan.
	sc, err := scan.Open(t.Path, scan.Options{Delimiter: t.delim(), Workers: 1, Counters: counters})
	if err != nil {
		return Table{}, err
	}
	type rec struct {
		key  int64
		line []byte
	}
	var recs []rec
	err = sc.ScanColumns(nil, func(rowID int64, fields []scan.FieldRef) error {
		k, err := scan.ParseInt64(fields[key].Bytes)
		if err != nil {
			return fmt.Errorf("baseline: sort key row %d: %w", rowID, err)
		}
		// Reassemble the row (the sort tool moves whole lines).
		var line []byte
		for i, f := range fields {
			if i > 0 {
				line = append(line, t.delim())
			}
			line = append(line, f.Bytes...)
		}
		recs = append(recs, rec{key: k, line: line})
		return nil
	}, nil)
	if err != nil {
		return Table{}, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })

	f, err := os.Create(outPath)
	if err != nil {
		return Table{}, fmt.Errorf("baseline: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var written int64
	for _, r := range recs {
		if _, err := bw.Write(r.line); err != nil {
			f.Close()
			return Table{}, err
		}
		if err := bw.WriteByte('\n'); err != nil {
			f.Close()
			return Table{}, err
		}
		written += int64(len(r.line)) + 1
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return Table{}, err
	}
	if err := f.Close(); err != nil {
		return Table{}, err
	}
	if counters != nil {
		counters.AddInternalBytesWritten(written)
	}
	return Table{Path: outPath, Delimiter: t.delim(), NumCols: t.NumCols, Types: t.Types}, nil
}

// SumColumn is a convenience for benchmark assertions: sum an int column
// of a view.
func SumColumn(v *exec.View, k exec.ColKey) int64 {
	c := v.Col(k)
	var s int64
	for _, x := range c.Ints {
		s += x
	}
	return s
}
