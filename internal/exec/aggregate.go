package exec

import (
	"fmt"
	"math"
	"sort"

	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// AggSpec is one bound aggregate: Kind over column Col (ignored for
// count(*), marked by Star).
type AggSpec struct {
	Kind sql.AggKind
	Col  ColKey
	Star bool
}

// aggState accumulates one aggregate.
type aggState struct {
	spec  AggSpec
	count int64
	sumI  int64
	sumF  float64
	min   storage.Value
	max   storage.Value
	isInt bool
	seen  bool
}

func newAggState(spec AggSpec, typ schema.Type) *aggState {
	return &aggState{spec: spec, isInt: typ == schema.Int64}
}

func (a *aggState) add(v storage.Value) {
	a.count++
	switch a.spec.Kind {
	case sql.AggSum, sql.AggAvg:
		if a.isInt {
			a.sumI += v.I
		} else {
			a.sumF += v.AsFloat()
		}
	case sql.AggMin:
		if !a.seen || v.Compare(a.min) < 0 {
			a.min = v
		}
	case sql.AggMax:
		if !a.seen || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
	a.seen = true
}

func (a *aggState) result() storage.Value {
	switch a.spec.Kind {
	case sql.AggCount:
		return storage.IntValue(a.count)
	case sql.AggSum:
		if !a.seen {
			return storage.IntValue(0)
		}
		if a.isInt {
			return storage.IntValue(a.sumI)
		}
		return storage.FloatValue(a.sumF)
	case sql.AggAvg:
		if a.count == 0 {
			return storage.FloatValue(math.NaN())
		}
		if a.isInt {
			return storage.FloatValue(float64(a.sumI) / float64(a.count))
		}
		return storage.FloatValue(a.sumF / float64(a.count))
	case sql.AggMin:
		return a.min
	case sql.AggMax:
		return a.max
	default:
		return storage.Value{}
	}
}

// Aggregate computes the aggregates over every row of the view, returning
// one result row.
func Aggregate(v *View, specs []AggSpec) ([]storage.Value, error) {
	states := make([]*aggState, len(specs))
	for i, s := range specs {
		typ := schema.Int64
		if !s.Star {
			c := v.Col(s.Col)
			if c == nil {
				return nil, fmt.Errorf("exec: aggregate column %v not in view", s.Col)
			}
			typ = c.Typ
		}
		states[i] = newAggState(s, typ)
	}
	n := v.Len()
	for i := 0; i < n; i++ {
		for _, st := range states {
			if st.spec.Star {
				st.count++
				continue
			}
			st.add(v.Value(st.spec.Col, i))
		}
	}
	out := make([]storage.Value, len(states))
	for i, st := range states {
		out[i] = st.result()
	}
	return out, nil
}

// SortKey orders result rows by output column index.
type SortKey struct {
	Index int
	Desc  bool
}

// SortRows sorts result rows in place by the given keys.
func SortRows(rows [][]storage.Value, keys []SortKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c := rows[i][k.Index].Compare(rows[j][k.Index])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// LimitRows truncates rows to at most n (n < 0 means no limit).
func LimitRows(rows [][]storage.Value, n int) [][]storage.Value {
	if n < 0 || n >= len(rows) {
		return rows
	}
	return rows[:n]
}
