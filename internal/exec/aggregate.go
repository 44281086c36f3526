package exec

import (
	"math"
	"sort"

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
