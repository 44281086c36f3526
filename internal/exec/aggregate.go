package exec

import (
	"math"

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
	slot  int // of the input column in AggOp's batches
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
