// Package plan binds parsed SQL to table schemas and produces the physical
// plan the engine executes — including the paper's adaptive-load rewrite
// (§3.1.3): "after all optimization of the original query plan is finished,
// a new optimizer module/rule takes over to rewrite the optimized plan into
// a query plan that properly contains the new loading operators ... for
// each table referenced in the plan, the optimizer will add one adaptive
// load operator to bring in one go all missing columns or parts of them."
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/sql"
)

// Policy selects how the engine brings raw data in. The names mirror the
// curves of the paper's figures.
type Policy int

// Loading policies. The zero value is PolicyColumnLoads, the default.
const (
	// PolicyColumnLoads loads whole missing columns on demand ("Column
	// Loads").
	PolicyColumnLoads Policy = iota
	// PolicyFullLoad loads the complete table on first touch (the
	// "MonetDB" behavior in Figures 3 and 4).
	PolicyFullLoad
	// PolicyPartialV1 pushes selections into loading and retains nothing
	// ("Partial Loads" of Figure 3).
	PolicyPartialV1
	// PolicyPartialV2 retains qualifying values between queries ("Partial
	// Loads V2" of Figure 4).
	PolicyPartialV2
	// PolicyExternal re-parses the raw file for every query and caches
	// nothing at all (the "MySQL CSV engine" baseline).
	PolicyExternal
	// PolicyAuto self-tunes per column (the paper's §5.5 robustness
	// direction): queries start with retained partial loads, and a column
	// that keeps being touched — or whose sparse store grows past a
	// threshold — is promoted to a full column load, avoiding the
	// worst-case "N queries, N trips to the file" behavior.
	PolicyAuto
)

func (p Policy) String() string {
	switch p {
	case PolicyFullLoad:
		return "full"
	case PolicyColumnLoads:
		return "columns"
	case PolicyPartialV1:
		return "partial-v1"
	case PolicyPartialV2:
		return "partial-v2"
	case PolicyExternal:
		return "external"
	case PolicyAuto:
		return "auto"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name (as printed by String) back.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "full", "monetdb":
		return PolicyFullLoad, nil
	case "columns", "columnloads":
		return PolicyColumnLoads, nil
	case "partial-v1", "partialv1", "v1":
		return PolicyPartialV1, nil
	case "partial-v2", "partialv2", "v2":
		return PolicyPartialV2, nil
	case "external", "csv":
		return PolicyExternal, nil
	case "auto":
		return PolicyAuto, nil
	default:
		return 0, fmt.Errorf("plan: unknown policy %q", s)
	}
}

// LoadOp is the adaptive load operator plugged into a table's scan.
type LoadOp int

// Load operators.
const (
	// LoadNone — all needed columns are already in the adaptive store.
	LoadNone LoadOp = iota
	// LoadFull — load the complete table before scanning.
	LoadFull
	// LoadColumns — load the missing needed columns fully.
	LoadColumns
	// LoadPartialEphemeral — selective load, discard after the query.
	LoadPartialEphemeral
	// LoadPartialRetained — selective load into the adaptive store.
	LoadPartialRetained
	// LoadExternal — selective read with no storage and no adaptive
	// store consultation at all.
	LoadExternal
	// LoadAuto — the engine decides per column at execution time:
	// partial load for cold columns, full column load for hot ones.
	LoadAuto
)

func (op LoadOp) String() string {
	switch op {
	case LoadNone:
		return "none"
	case LoadFull:
		return "full-load"
	case LoadColumns:
		return "column-load"
	case LoadPartialEphemeral:
		return "partial-load-v1"
	case LoadPartialRetained:
		return "partial-load-v2"
	case LoadExternal:
		return "external-scan"
	case LoadAuto:
		return "auto-load"
	default:
		return fmt.Sprintf("LoadOp(%d)", int(op))
	}
}

// CatalogInfo is what the planner needs to know about linked tables; the
// engine's catalog satisfies it.
type CatalogInfo interface {
	// TableSchema returns the schema of a linked table.
	TableSchema(name string) (*schema.Schema, error)
	// DenseAll reports whether all listed columns of the table are fully
	// loaded.
	DenseAll(name string, cols []int) bool
}

// TablePlan describes one table's scan: which columns execution needs, the
// bound single-table predicates, and the adaptive load operator the
// rewrite chose.
type TablePlan struct {
	Ordinal  int
	Name     string
	RefName  string
	Schema   *schema.Schema
	NeedCols []int
	Conj     expr.Conjunction
	LoadOp   LoadOp
	// Pins lists the columns whose adaptive structures (dense or sparse
	// state, plus the table's positional map and synopsis) execution
	// pins against governor eviction while the query runs: the needed
	// columns united with the predicate columns.
	Pins []int
}

// JoinEdge is one bound equi-join condition.
type JoinEdge struct {
	Left  exec.ColKey
	Right exec.ColKey
}

// Slot maps one select-list position to its source: an aggregate (index
// into Aggs) or a plain column (index into Project).
type Slot struct {
	Agg bool
	Idx int
}

// Plan is the bound, rewritten physical plan.
type Plan struct {
	Tables  []TablePlan
	Joins   []JoinEdge
	Aggs    []exec.AggSpec // empty for plain projections
	GroupBy []exec.ColKey
	Project []exec.ColKey // plain (or group-by key) output columns
	Slots   []Slot        // select-list order over Aggs/Project
	Output  []string      // output column names
	OrderBy []exec.SortKey
	Limit   int
}

// HasAggregates reports whether the plan computes aggregates.
func (p *Plan) HasAggregates() bool { return len(p.Aggs) > 0 }

// String renders the plan for EXPLAIN-style display.
func (p *Plan) String() string {
	var b []byte
	for _, t := range p.Tables {
		b = append(b, "scan "...)
		b = append(b, t.Name...)
		b = append(b, " (t"...)
		b = strconv.AppendInt(b, int64(t.Ordinal), 10)
		b = append(b, ") cols="...)
		b = appendList(b, t.NeedCols, appendInt)
		b = append(b, " load="...)
		b = append(b, t.LoadOp.String()...)
		b = append(b, " pin="...)
		b = appendList(b, t.Pins, appendInt)
		if !t.Conj.Empty() {
			b = append(b, " where "...)
			b = append(b, t.Conj.String()...)
		}
		b = append(b, '\n')
	}
	for _, j := range p.Joins {
		b = append(b, "hash join "...)
		b = append(b, j.Left.String()...)
		b = append(b, " = "...)
		b = append(b, j.Right.String()...)
		b = append(b, '\n')
	}
	if len(p.GroupBy) > 0 {
		b = append(b, "group by "...)
		b = appendList(b, p.GroupBy, func(b []byte, k exec.ColKey) []byte { return append(b, k.String()...) })
		b = append(b, '\n')
	}
	if len(p.Aggs) > 0 {
		b = append(b, "aggregate "...)
		b = strconv.AppendInt(b, int64(len(p.Aggs)), 10)
		b = append(b, " exprs\n"...)
	}
	b = append(b, "output "...)
	b = appendList(b, p.Output, func(b []byte, s string) []byte { return append(b, s...) })
	b = append(b, '\n')
	return string(b)
}

// appendList appends items as fmt's %v prints a slice: "[a b c]".
func appendList[T any](b []byte, items []T, appendItem func([]byte, T) []byte) []byte {
	b = append(b, '[')
	for i, x := range items {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendItem(b, x)
	}
	return append(b, ']')
}

func appendInt(b []byte, i int) []byte { return strconv.AppendInt(b, int64(i), 10) }

// binder resolves names against the referenced tables.
type binder struct {
	stmt   *sql.SelectStmt
	tables []TablePlan
	need   []map[int]bool // per-ordinal needed columns
}

// Build binds stmt against the catalog and applies the adaptive-load
// rewrite for the given policy.
func Build(stmt *sql.SelectStmt, cat CatalogInfo, policy Policy) (*Plan, error) {
	b := &binder{stmt: stmt}

	addTable := func(ref sql.TableRef) error {
		sch, err := cat.TableSchema(ref.Name)
		if err != nil {
			return err
		}
		ord := len(b.tables)
		b.tables = append(b.tables, TablePlan{
			Ordinal: ord,
			Name:    ref.Name,
			RefName: ref.RefName(),
			Schema:  sch,
		})
		b.need = append(b.need, map[int]bool{})
		return nil
	}
	if err := addTable(stmt.From); err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if err := addTable(j.Table); err != nil {
			return nil, err
		}
	}

	p := &Plan{Limit: stmt.Limit}

	// Bind joins.
	for _, j := range stmt.Joins {
		l, err := b.resolve(j.Left)
		if err != nil {
			return nil, err
		}
		r, err := b.resolve(j.Right)
		if err != nil {
			return nil, err
		}
		b.markNeed(l)
		b.markNeed(r)
		p.Joins = append(p.Joins, JoinEdge{Left: l, Right: r})
	}

	// Bind WHERE predicates (single-table by construction).
	if stmt.NumParams > 0 {
		return nil, fmt.Errorf("plan: statement has %d unbound parameters; bind arguments first", stmt.NumParams)
	}
	for _, pred := range stmt.Where {
		k, err := b.resolve(pred.Col)
		if err != nil {
			return nil, err
		}
		b.markNeed(k)
		bp := expr.Pred{Col: k.Col, Between: pred.Between}
		if pred.Between {
			bp.Val, bp.Val2 = pred.Lo, pred.Hi
		} else {
			op, err := bindOp(pred.Op)
			if err != nil {
				return nil, err
			}
			bp.Op = op
			bp.Val = pred.Val
		}
		b.tables[k.Tab].Conj.Preds = append(b.tables[k.Tab].Conj.Preds, bp)
	}

	// Bind the select list.
	if err := b.bindSelectList(p); err != nil {
		return nil, err
	}

	// Bind GROUP BY.
	for _, g := range stmt.GroupBy {
		k, err := b.resolve(g)
		if err != nil {
			return nil, err
		}
		b.markNeed(k)
		p.GroupBy = append(p.GroupBy, k)
	}
	if err := validateGrouping(p, stmt); err != nil {
		return nil, err
	}

	// Bind ORDER BY to output column positions.
	for _, o := range stmt.OrderBy {
		idx, err := b.outputIndex(p, o.Col)
		if err != nil {
			return nil, err
		}
		p.OrderBy = append(p.OrderBy, exec.SortKey{Index: idx, Desc: o.Desc})
	}

	// Finalize per-table needed columns and apply the adaptive-load
	// rewrite.
	for i := range b.tables {
		t := &b.tables[i]
		for c := range b.need[i] {
			t.NeedCols = append(t.NeedCols, c)
		}
		if len(t.NeedCols) == 0 {
			// count(*)-style plans still need one column to drive the
			// scan; the first is the cheapest to tokenize.
			t.NeedCols = []int{0}
		}
		sortInts(t.NeedCols)
		t.Pins = append([]int(nil), t.NeedCols...)
		for _, c := range t.Conj.Columns() {
			if !containsPin(t.Pins, c) {
				t.Pins = append(t.Pins, c)
			}
		}
		sortInts(t.Pins)
		t.LoadOp = rewriteLoadOp(policy, cat, t)
	}
	p.Tables = b.tables
	return p, nil
}

// rewriteLoadOp is the adaptive-load rewrite rule: given the policy and the
// adaptive store's current state, pick the load operator for one table.
func rewriteLoadOp(policy Policy, cat CatalogInfo, t *TablePlan) LoadOp {
	switch policy {
	case PolicyFullLoad:
		all := make([]int, t.Schema.NumCols())
		for i := range all {
			all[i] = i
		}
		if cat.DenseAll(t.Name, all) {
			return LoadNone
		}
		return LoadFull
	case PolicyColumnLoads:
		if cat.DenseAll(t.Name, t.NeedCols) {
			return LoadNone
		}
		return LoadColumns
	case PolicyPartialV1:
		return LoadPartialEphemeral
	case PolicyPartialV2:
		return LoadPartialRetained
	case PolicyExternal:
		return LoadExternal
	case PolicyAuto:
		if cat.DenseAll(t.Name, t.NeedCols) {
			return LoadNone
		}
		return LoadAuto
	default:
		return LoadColumns
	}
}

func (b *binder) markNeed(k exec.ColKey) { b.need[k.Tab][k.Col] = true }

// resolve binds a column reference to (table ordinal, column index).
func (b *binder) resolve(c sql.ColRef) (exec.ColKey, error) {
	if c.Table != "" {
		for _, t := range b.tables {
			if strings.EqualFold(t.RefName, c.Table) || strings.EqualFold(t.Name, c.Table) {
				idx := t.Schema.ColIndex(c.Column)
				if idx < 0 {
					return exec.ColKey{}, fmt.Errorf("plan: table %s has no column %q", t.Name, c.Column)
				}
				return exec.ColKey{Tab: t.Ordinal, Col: idx}, nil
			}
		}
		return exec.ColKey{}, fmt.Errorf("plan: unknown table %q", c.Table)
	}
	found := exec.ColKey{Tab: -1}
	for _, t := range b.tables {
		if idx := t.Schema.ColIndex(c.Column); idx >= 0 {
			if found.Tab >= 0 {
				return exec.ColKey{}, fmt.Errorf("plan: column %q is ambiguous", c.Column)
			}
			found = exec.ColKey{Tab: t.Ordinal, Col: idx}
		}
	}
	if found.Tab < 0 {
		return exec.ColKey{}, fmt.Errorf("plan: unknown column %q", c.Column)
	}
	return found, nil
}

func bindOp(op string) (expr.CmpOp, error) {
	switch op {
	case "<":
		return expr.Lt, nil
	case "<=":
		return expr.Le, nil
	case ">":
		return expr.Gt, nil
	case ">=":
		return expr.Ge, nil
	case "=":
		return expr.Eq, nil
	case "<>":
		return expr.Ne, nil
	default:
		return 0, fmt.Errorf("plan: unsupported operator %q", op)
	}
}

func (b *binder) bindSelectList(p *Plan) error {
	for _, item := range b.stmt.Items {
		switch {
		case item.Star && item.Agg == sql.AggNone:
			// Expand * into every column of every table.
			for _, t := range b.tables {
				for ci, col := range t.Schema.Columns {
					k := exec.ColKey{Tab: t.Ordinal, Col: ci}
					b.markNeed(k)
					p.Slots = append(p.Slots, Slot{Agg: false, Idx: len(p.Project)})
					p.Project = append(p.Project, k)
					p.Output = append(p.Output, col.Name)
				}
			}
		case item.Agg == sql.AggNone:
			k, err := b.resolve(item.Col)
			if err != nil {
				return err
			}
			b.markNeed(k)
			p.Slots = append(p.Slots, Slot{Agg: false, Idx: len(p.Project)})
			p.Project = append(p.Project, k)
			p.Output = append(p.Output, item.Col.Column)
		case item.Star: // count(*)
			p.Slots = append(p.Slots, Slot{Agg: true, Idx: len(p.Aggs)})
			p.Aggs = append(p.Aggs, exec.AggSpec{Kind: sql.AggCount, Star: true})
			p.Output = append(p.Output, "count(*)")
		default:
			k, err := b.resolve(item.Col)
			if err != nil {
				return err
			}
			typ := b.tables[k.Tab].Schema.Columns[k.Col].Type
			if (item.Agg == sql.AggSum || item.Agg == sql.AggAvg) && typ == schema.String {
				return fmt.Errorf("plan: %s(%s) is not valid on a string column", item.Agg, item.Col)
			}
			b.markNeed(k)
			p.Slots = append(p.Slots, Slot{Agg: true, Idx: len(p.Aggs)})
			p.Aggs = append(p.Aggs, exec.AggSpec{Kind: item.Agg, Col: k})
			p.Output = append(p.Output, fmt.Sprintf("%s(%s)", item.Agg, item.Col.Column))
		}
	}
	return nil
}

// validateGrouping enforces the usual rule: with aggregates present, plain
// select items must be GROUP BY keys.
func validateGrouping(p *Plan, stmt *sql.SelectStmt) error {
	if len(p.Aggs) == 0 {
		if len(p.GroupBy) > 0 {
			return fmt.Errorf("plan: GROUP BY without aggregates is not supported")
		}
		return nil
	}
	if len(p.Project) == 0 {
		return nil
	}
	if len(p.GroupBy) == 0 {
		return fmt.Errorf("plan: mixing plain columns and aggregates requires GROUP BY")
	}
	for _, k := range p.Project {
		ok := false
		for _, g := range p.GroupBy {
			if g == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("plan: selected column %v is not in GROUP BY", k)
		}
	}
	return nil
}

// outputIndex finds the select-list position of an ORDER BY column: it
// must be one of the plain projected columns.
func (b *binder) outputIndex(p *Plan, c sql.ColRef) (int, error) {
	k, err := b.resolve(c)
	if err != nil {
		return 0, err
	}
	for i, s := range p.Slots {
		if !s.Agg && p.Project[s.Idx] == k {
			return i, nil
		}
	}
	return 0, fmt.Errorf("plan: ORDER BY column %q must appear in the select list", c.Column)
}

func containsPin(v []int, x int) bool {
	for _, c := range v {
		if c == x {
			return true
		}
	}
	return false
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
