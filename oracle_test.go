package nodb

// A reference evaluator for the differential suites. It reads headerless
// CSV files with encoding/csv, types each column by what strconv can parse,
// and evaluates a parsed statement with plain loops: filter, nested-loop
// equi-join, aggregate, group-by in first-appearance order, stable sort and
// limit. Below the SQL AST it shares no code with the engine, so agreeing
// with it is evidence that the engine is right, not only that two of its
// configurations agree with each other.

import (
	"cmp"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nodb/internal/sql"
)

// oval is one typed cell: kind 'i' (int64), 'f' (float64) or 's' (string).
type oval struct {
	kind byte
	i    int64
	f    float64
	s    string
}

func (v oval) num() float64 {
	if v.kind == 'i' {
		return float64(v.i)
	}
	return v.f // strings count as 0
}

// String renders like the engine's result values: integers in decimal,
// floats in the shortest %g form, strings verbatim.
func (v oval) String() string {
	switch v.kind {
	case 'i':
		return strconv.FormatInt(v.i, 10)
	case 'f':
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return v.s
	}
}

func ocompare(a, b oval) int {
	switch {
	case a.kind == 's' || b.kind == 's':
		return strings.Compare(a.String(), b.String())
	case a.kind == 'i' && b.kind == 'i':
		return cmp.Compare(a.i, b.i)
	default:
		return cmp.Compare(a.num(), b.num())
	}
}

// parseOval types a literal's text: an integer if strconv takes it as one,
// else a float, else a string.
func parseOval(text string) oval {
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return oval{kind: 'i', i: i}
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return oval{kind: 'f', f: f}
	}
	return oval{kind: 's', s: text}
}

// The engine's edge cases, stated as the oracle's own rules.
var (
	emptySum     = oval{kind: 'i'}                // sum over no rows is the integer 0
	emptyAvg     = oval{kind: 'f', f: math.NaN()} // avg over no rows is NaN
	emptyExtreme = oval{kind: 'i'}                // min and max over no rows are the integer 0
)

// otable is one loaded file: columns a1..aN, rows in file order.
type otable struct {
	cols []string
	rows [][]oval
}

// loadOTable reads a headerless CSV. A column is int64 when every value
// parses as one, else float64 when every value parses as one, else string.
func loadOTable(t testing.TB, path string) *otable {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil || len(recs) == 0 {
		t.Fatalf("oracle: read %s: %v (%d records)", path, err, len(recs))
	}
	tab := &otable{cols: make([]string, len(recs[0])), rows: make([][]oval, len(recs))}
	kinds := make([]byte, len(tab.cols))
	for c := range tab.cols {
		tab.cols[c] = "a" + strconv.Itoa(c+1)
		kinds[c] = 'i'
		for _, rec := range recs {
			if kinds[c] == 'i' {
				if _, err := strconv.ParseInt(rec[c], 10, 64); err != nil {
					kinds[c] = 'f'
				}
			}
			if kinds[c] == 'f' {
				if _, err := strconv.ParseFloat(rec[c], 64); err != nil {
					kinds[c] = 's'
					break
				}
			}
		}
	}
	for r, rec := range recs {
		row := make([]oval, len(rec))
		for c, text := range rec {
			switch kinds[c] {
			case 'i':
				row[c].i, _ = strconv.ParseInt(text, 10, 64)
			case 'f':
				row[c].f, _ = strconv.ParseFloat(text, 64)
			default:
				row[c].s = text
			}
			row[c].kind = kinds[c]
		}
		tab.rows[r] = row
	}
	return tab
}

// oracle answers queries over a fixed set of named CSV files.
type oracle struct {
	t      testing.TB
	tables map[string]*otable // keyed by lower-cased table name
}

func newOracle(t testing.TB, paths map[string]string) *oracle {
	o := &oracle{t: t, tables: map[string]*otable{}}
	for name, path := range paths {
		o.tables[strings.ToLower(name)] = loadOTable(t, path)
	}
	return o
}

// scope resolves column references against the statement's tables, whose
// rows are concatenated in FROM, JOIN order.
type scope struct {
	refs []sql.TableRef
	tabs []*otable
	offs []int
}

func (s *scope) col(t testing.TB, c sql.ColRef) int {
	t.Helper()
	at := -1
	for ti, ref := range s.refs {
		if c.Table != "" && !strings.EqualFold(c.Table, ref.RefName()) {
			continue
		}
		for ci, name := range s.tabs[ti].cols {
			if strings.EqualFold(name, c.Column) {
				if at >= 0 {
					t.Fatalf("oracle: column %s is ambiguous", c)
				}
				at = s.offs[ti] + ci
			}
		}
	}
	if at < 0 {
		t.Fatalf("oracle: unknown column %s", c)
	}
	return at
}

func holds(p sql.Predicate, v oval) bool {
	if p.Between {
		return ocompare(v, parseOval(p.Lo.String())) >= 0 && ocompare(v, parseOval(p.Hi.String())) <= 0
	}
	c := ocompare(v, parseOval(p.Val.String()))
	switch p.Op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "=":
		return c == 0
	default: // "<>"
		return c != 0
	}
}

func aggregate(kind sql.AggKind, col int, rows [][]oval) oval {
	if kind == sql.AggCount {
		return oval{kind: 'i', i: int64(len(rows))}
	}
	if len(rows) == 0 {
		switch kind {
		case sql.AggSum:
			return emptySum
		case sql.AggAvg:
			return emptyAvg
		default:
			return emptyExtreme
		}
	}
	switch kind {
	case sql.AggSum, sql.AggAvg:
		var si int64
		var sf float64
		for _, r := range rows {
			si += r[col].i
			sf += r[col].num()
		}
		n := float64(len(rows))
		switch {
		case rows[0][col].kind == 'i' && kind == sql.AggSum:
			return oval{kind: 'i', i: si}
		case rows[0][col].kind == 'i':
			return oval{kind: 'f', f: float64(si) / n}
		case kind == sql.AggSum:
			return oval{kind: 'f', f: sf}
		default:
			return oval{kind: 'f', f: sf / n}
		}
	default: // min, max: the first extreme value wins ties
		best := rows[0][col]
		for _, r := range rows[1:] {
			c := ocompare(r[col], best)
			if (kind == sql.AggMin && c < 0) || (kind == sql.AggMax && c > 0) {
				best = r[col]
			}
		}
		return best
	}
}

// answer evaluates q and renders it like resultTable. ordered reports
// whether the query defines the row order; when it does not (a join
// without an ORDER BY that fixes every row), callers compare multisets.
func (o *oracle) answer(q string) (table string, ordered bool) {
	t := o.t
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil || stmt.NumParams > 0 {
		t.Fatalf("oracle: %s: parse error %v or unbound parameters", q, err)
	}
	sc := &scope{refs: []sql.TableRef{stmt.From}}
	for _, j := range stmt.Joins {
		sc.refs = append(sc.refs, j.Table)
	}
	width := 0
	for _, ref := range sc.refs {
		tab := o.tables[strings.ToLower(ref.Name)]
		if tab == nil {
			t.Fatalf("oracle: unknown table %s", ref.Name)
		}
		sc.tabs = append(sc.tabs, tab)
		sc.offs = append(sc.offs, width)
		width += len(tab.cols)
	}

	rows := sc.tabs[0].rows
	for ji, j := range stmt.Joins {
		l, r := sc.col(t, j.Left), sc.col(t, j.Right)
		var joined [][]oval
		for _, lr := range rows {
			for _, rr := range sc.tabs[ji+1].rows {
				row := append(append(make([]oval, 0, len(lr)+len(rr)), lr...), rr...)
				if ocompare(row[l], row[r]) == 0 {
					joined = append(joined, row)
				}
			}
		}
		rows = joined
	}
	var kept [][]oval
	for _, row := range rows {
		ok := true
		for _, p := range stmt.Where {
			if !holds(p, row[sc.col(t, p.Col)]) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, row)
		}
	}

	// One output column per select item (per table column for *): a
	// copied column, or an aggregate over one (at is -1 for count(*)).
	type outCol struct {
		agg sql.AggKind
		at  int
	}
	var outs []outCol
	for _, it := range stmt.Items {
		switch {
		case it.Agg == sql.AggNone && it.Star:
			for c := 0; c < width; c++ {
				outs = append(outs, outCol{sql.AggNone, c})
			}
		case it.Star:
			outs = append(outs, outCol{it.Agg, -1})
		default:
			outs = append(outs, outCol{it.Agg, sc.col(t, it.Col)})
		}
	}
	shape := func(group [][]oval) []oval {
		row := make([]oval, len(outs))
		for i, oc := range outs {
			if oc.agg == sql.AggNone {
				row[i] = group[0][oc.at]
			} else {
				row[i] = aggregate(oc.agg, oc.at, group)
			}
		}
		return row
	}

	var out [][]oval
	keys := make([]int, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		keys[i] = sc.col(t, g)
	}
	switch {
	case len(keys) > 0:
		index := map[string]int{}
		var groups [][][]oval
		for _, row := range kept {
			var kb strings.Builder
			for _, k := range keys {
				kb.WriteString(row[k].String())
				kb.WriteByte(0)
			}
			gi, ok := index[kb.String()]
			if !ok {
				gi = len(groups)
				index[kb.String()] = gi
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], row)
		}
		for _, g := range groups {
			out = append(out, shape(g))
		}
	case stmt.HasAggregates():
		out = [][]oval{shape(kept)}
	default:
		for _, row := range kept {
			out = append(out, shape([][]oval{row}))
		}
	}

	// ORDER BY names select-list columns; fixed records which source
	// columns the sort pins down.
	type sortKey struct {
		at   int
		desc bool
	}
	var sortKeys []sortKey
	fixed := map[int]bool{}
	for _, ob := range stmt.OrderBy {
		c := sc.col(t, ob.Col)
		at := -1
		for i, oc := range outs {
			if oc.agg == sql.AggNone && oc.at == c {
				at = i
				break
			}
		}
		if at < 0 {
			t.Fatalf("oracle: ORDER BY %s is not in the select list", ob.Col)
		}
		sortKeys = append(sortKeys, sortKey{at, ob.Desc})
		fixed[c] = true
	}
	sort.SliceStable(out, func(a, b int) bool {
		for _, k := range sortKeys {
			if c := ocompare(out[a][k.at], out[b][k.at]); c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
	if stmt.Limit >= 0 && stmt.Limit < len(out) {
		out = out[:stmt.Limit]
	}

	ordered = len(stmt.Joins) == 0 || (stmt.HasAggregates() && len(keys) == 0)
	if !ordered {
		// A grouped result is fixed once every group key is sorted on, a
		// plain one once every output column is.
		pinned := keys
		if len(keys) == 0 {
			for _, oc := range outs {
				pinned = append(pinned, oc.at)
			}
		}
		ordered = true
		for _, c := range pinned {
			ordered = ordered && fixed[c]
		}
	}
	if !ordered && stmt.Limit >= 0 {
		t.Fatalf("oracle: %s: LIMIT over a join without a total ORDER BY has no single answer", q)
	}

	var sb strings.Builder
	for _, row := range out {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String(), ordered
}

// checkOracle runs q on db and fails the test unless the result table
// equals the oracle's: byte for byte, or as a multiset of rows when the
// query leaves the order open.
func checkOracle(t *testing.T, o *oracle, db *DB, q, label string) {
	t.Helper()
	want, ordered := o.answer(q)
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %s: %v", label, q, err)
	}
	got := resultTable(res)
	if !ordered {
		got, want = sortedLines(got), sortedLines(want)
	}
	if got != want {
		t.Errorf("%s: %s:\nengine:\n%soracle:\n%s", label, q, got, want)
	}
}

func sortedLines(table string) string {
	lines := strings.SplitAfter(table, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestOracleHandComputed pins the oracle itself to answers worked out by
// hand on five rows, and holds the engine to the same values.
func TestOracleHandComputed(t *testing.T) {
	dir := t.TempDir()
	tp, up := filepath.Join(dir, "t.csv"), filepath.Join(dir, "u.csv")
	if err := os.WriteFile(tp, []byte("3,10,1.5\n1,20,2.5\n3,30,0.25\n2,40,4\n1,50,8.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(up, []byte("1,100\n3,300\n3,301\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ q, want string }{
		{"select count(*), sum(a1), min(a2), max(a3), avg(a2) from t", "5|10|10|8.5|30\n"},
		{"select sum(a3) from t where a1 = 3", "1.75\n"},
		{"select sum(a1), avg(a1), min(a2), max(a3), count(*) from t where a1 > 100", "0|NaN|0|0|0\n"},
		{"select a1, count(*), sum(a2) from t group by a1", "3|2|40\n1|2|70\n2|1|40\n"},
		{"select a2, a1 from t where a2 between 20 and 40 order by a1 desc, a2 limit 2", "30|3\n40|2\n"},
		{"select a1 from t where a3 <> 4 limit 3", "3\n1\n3\n"},
		{"select count(*), sum(u.a2) from t join u on t.a1 = u.a1", "6|1402\n"},
	}
	o := newOracle(t, map[string]string{"t": tp, "u": up})
	db := Open(Options{Workers: 1})
	defer db.Close()
	for _, name := range []string{"t", "u"} {
		if err := db.Attach(name, TableSpec{Path: filepath.Join(dir, name+".csv")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		if got, _ := o.answer(c.q); got != c.want {
			t.Errorf("oracle: %s = %q, want %q", c.q, got, c.want)
		}
		checkOracle(t, o, db, c.q, "engine")
	}
}
