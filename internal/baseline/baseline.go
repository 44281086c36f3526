// Package baseline implements the external-tool comparators of the
// paper's §2 study: the Awk script (optimized: touches only the needed
// attributes, abandons a row on the first failing predicate), the Perl
// script (naive: splits every attribute of every row — the paper measured
// it 2× slower than Awk), and the MySQL CSV storage engine (a generic
// row engine: tokenizes and parses every attribute, then filters).
//
// None of them load, cache or learn anything: every query re-reads and
// re-parses the flat file. That constant per-query cost is the flat line
// the figures show.
package baseline

import (
	"fmt"
	"sort"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// Table describes a flat file a "script" runs over. Baselines do not use
// the catalog: like a real script, all they know is the file and the
// column types the user had in mind.
type Table struct {
	Path      string
	Delimiter byte
	NumCols   int
	Types     []schema.Type // column types; nil means all int64
}

func (t Table) colType(i int) schema.Type {
	if t.Types == nil {
		return schema.Int64
	}
	return t.Types[i]
}

func (t Table) delim() byte {
	if t.Delimiter == 0 {
		return ','
	}
	return t.Delimiter
}

// AwkScan emulates the optimized Awk script: tokenize only up to the last
// needed attribute, evaluate each predicate the moment its attribute is
// parsed, and skip the rest of the row on failure. It returns qualifying
// rows as a View under table ordinal tab.
func AwkScan(t Table, needCols []int, conj expr.Conjunction, counters *metrics.Counters, tab int) (*exec.View, error) {
	return scriptScan(t, needCols, conj, counters, tab, true)
}

// PerlScan emulates the naive script: every attribute of every row is
// split out and parsed before anything is evaluated — the paper measured
// Perl at 2× Awk.
func PerlScan(t Table, needCols []int, conj expr.Conjunction, counters *metrics.Counters, tab int) (*exec.View, error) {
	return scriptScan(t, needCols, conj, counters, tab, false)
}

// scriptScan is the shared external-scan skeleton.
func scriptScan(t Table, needCols []int, conj expr.Conjunction, counters *metrics.Counters, tab int, earlyAbandon bool) (*exec.View, error) {
	loadCols := unionCols(needCols, conj.Columns())
	// Workers 1: scripts are sequential by nature, and the handlers below
	// append to shared state without locks — they must not inherit the
	// parallel-by-default scan.
	sc, err := scan.Open(t.Path, scan.Options{Delimiter: t.delim(), Workers: 1, Counters: counters})
	if err != nil {
		return nil, err
	}

	view := exec.NewView()
	outCols := make([]*storage.DenseColumn, len(loadCols))
	for i, c := range loadCols {
		outCols[i] = storage.NewDense(t.colType(c), 0)
		view.AddCol(exec.ColKey{Tab: tab, Col: c}, outCols[i])
	}
	predsAt := make([][]expr.Pred, len(loadCols))
	for i, c := range loadCols {
		predsAt[i] = conj.OnColumn(c)
	}

	if earlyAbandon {
		abandon := func(idx int, f scan.FieldRef) bool {
			if len(predsAt[idx]) == 0 {
				return false
			}
			v, err := parse(f.Bytes, t.colType(loadCols[idx]))
			if err != nil {
				return true
			}
			for _, p := range predsAt[idx] {
				if !p.Eval(v) {
					return true
				}
			}
			return false
		}
		err = sc.ScanColumns(loadCols, func(rowID int64, fields []scan.FieldRef) error {
			for i, f := range fields {
				v, err := parse(f.Bytes, t.colType(loadCols[i]))
				if err != nil {
					return fmt.Errorf("baseline: row %d: %w", rowID, err)
				}
				outCols[i].Append(v)
			}
			if counters != nil {
				counters.AddValuesParsed(int64(len(fields)))
			}
			view.Rows = append(view.Rows, rowID)
			return nil
		}, abandon)
		return view, err
	}

	// Naive path: tokenize and parse every attribute, filter afterwards.
	err = sc.ScanColumns(nil, func(rowID int64, fields []scan.FieldRef) error {
		vals := make([]storage.Value, len(fields))
		for i, f := range fields {
			v, perr := parse(f.Bytes, t.colType(min(i, t.NumCols-1)))
			if perr != nil {
				v = storage.StringValue(string(f.Bytes)) // scripts coerce
			}
			vals[i] = v
		}
		if counters != nil {
			counters.AddValuesParsed(int64(len(fields)))
		}
		ok := conj.EvalRow(func(col int) storage.Value {
			if col < len(vals) {
				return vals[col]
			}
			return storage.Value{}
		})
		if !ok {
			return nil
		}
		for i, c := range loadCols {
			if c < len(vals) {
				outCols[i].Append(vals[c])
			}
		}
		view.Rows = append(view.Rows, rowID)
		return nil
	}, nil)
	return view, err
}

// MySQLCSVScan emulates the MySQL CSV storage engine: a generic row-store
// engine reading an external table. Every attribute of every row is
// tokenized and parsed into the engine's tuple format before the filter
// runs; nothing is retained between queries. It does the same work as
// PerlScan: the paper's two systems differ in how they are built, not in
// what they read and parse.
func MySQLCSVScan(t Table, needCols []int, conj expr.Conjunction, counters *metrics.Counters, tab int) (*exec.View, error) {
	return scriptScan(t, needCols, conj, counters, tab, false)
}

func parse(b []byte, typ schema.Type) (storage.Value, error) {
	switch typ {
	case schema.Int64:
		v, err := scan.ParseInt64(b)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.IntValue(v), nil
	case schema.Float64:
		v, err := scan.ParseFloat64(b)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.FloatValue(v), nil
	default:
		return storage.StringValue(string(b)), nil
	}
}

func unionCols(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range a {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, c := range b {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}
