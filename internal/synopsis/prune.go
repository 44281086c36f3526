package synopsis

import (
	"nodb/internal/expr"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// Pruner holds precomputed skip decisions for one conjunction over one
// synopsis. Decisions are taken once, under the synopsis lock, at
// construction — Skip itself is a slice lookup, safe for concurrent use
// from scan workers and immune to concurrent synopsis mutation.
type Pruner struct {
	skip  []bool
	offs  []int64 // portion offsets the decisions were made for
	skips int
}

// Pruner builds skip decisions for conj. It returns nil when there is
// nothing to prune with: no predicates, or no complete layout. A portion
// is skippable when some predicate is provably unsatisfiable over the
// portion's recorded bounds for that column — bounds are conservative, so
// a skipped portion holds no qualifying row.
func (s *Synopsis) Pruner(conj expr.Conjunction) *Pruner {
	if s == nil || conj.Empty() {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.complete || len(s.portions) == 0 {
		return nil
	}
	cols := conj.Columns()
	pr := &Pruner{skip: make([]bool, len(s.portions)), offs: make([]int64, len(s.portions))}
	for i := range s.portions {
		p := &s.portions[i]
		pr.offs[i] = p.info.Off
		for _, col := range cols {
			b, ok := p.cols[col]
			if !ok {
				continue
			}
			if !satisfiable(conj.OnColumn(col), b) {
				pr.skip[i] = true
				pr.skips++
				break
			}
		}
	}
	if s.acct != nil {
		s.acct.Touch()
	}
	return pr
}

// Skip reports whether portion p was pruned. Nil-safe.
func (p *Pruner) Skip(pi scan.PortionInfo) bool {
	if p == nil || pi.Index < 0 || pi.Index >= len(p.skip) || p.offs[pi.Index] != pi.Off {
		return false
	}
	return p.skip[pi.Index]
}

// Skipped returns how many portions the pruner decided to skip.
func (p *Pruner) Skipped() int {
	if p == nil {
		return 0
	}
	return p.skips
}

// EstimateSkips reports, for Explain, how many of the synopsis' portions a
// query with conj would skip right now.
func (s *Synopsis) EstimateSkips(conj expr.Conjunction) (portions, skipped int) {
	if s == nil {
		return 0, 0
	}
	portions, _ = s.Stats()
	if pr := s.Pruner(conj); pr != nil {
		skipped = pr.skips
	}
	return portions, skipped
}

// SkippableAll reports whether every exported portion is provably
// unsatisfiable under conj — i.e. the whole file holds no qualifying row.
// This is the shard-pruning decision a cluster coordinator takes against a
// cached synopsis export: true means the shard need not be contacted at
// all. Conservative like Skip: an empty export, an empty conjunction, or a
// portion lacking bounds for every predicate column all answer false.
func SkippableAll(ps []PortionState, conj expr.Conjunction) bool {
	if len(ps) == 0 || conj.Empty() {
		return false
	}
	cols := conj.Columns()
	for _, p := range ps {
		skippable := false
		for _, col := range cols {
			var b ColBounds
			found := false
			for _, c := range p.Cols {
				if c.Col == col {
					b, found = c, true
					break
				}
			}
			if !found {
				continue
			}
			if !satisfiable(conj.OnColumn(col), b) {
				skippable = true
				break
			}
		}
		if !skippable {
			return false
		}
	}
	return true
}

// satisfiable reports whether some value within b could satisfy every
// predicate in preds. It tests each predicate independently (a joint
// violation merely misses a skip, never causes one) and answers true
// whenever it cannot be certain.
func satisfiable(preds []expr.Pred, b ColBounds) bool {
	for _, p := range preds {
		if !possible(p, b) {
			return false
		}
	}
	return true
}

func possible(p expr.Pred, b ColBounds) bool {
	if b.Typ == schema.String {
		return possibleString(p, b)
	}
	return possibleNumeric(p, b)
}

// possibleNumeric evaluates a predicate against inclusive numeric bounds.
// storage.Value.Compare orders int64 and float64 literals across types, so
// a float literal against an int column prunes correctly.
func possibleNumeric(p expr.Pred, b ColBounds) bool {
	if p.Val.Typ == schema.String || (p.Between && p.Val2.Typ == schema.String) {
		return true // untyped mismatch; cannot reason
	}
	min, max := b.MinI, b.MaxI
	minV := storage.IntValue(min)
	maxV := storage.IntValue(max)
	if b.Typ == schema.Float64 {
		minV = storage.FloatValue(b.MinF)
		maxV = storage.FloatValue(b.MaxF)
	}
	if p.Between {
		return maxV.Compare(p.Val) >= 0 && minV.Compare(p.Val2) <= 0
	}
	switch p.Op {
	case expr.Lt:
		return minV.Compare(p.Val) < 0
	case expr.Le:
		return minV.Compare(p.Val) <= 0
	case expr.Gt:
		return maxV.Compare(p.Val) > 0
	case expr.Ge:
		return maxV.Compare(p.Val) >= 0
	case expr.Eq:
		return minV.Compare(p.Val) <= 0 && maxV.Compare(p.Val) >= 0
	case expr.Ne:
		return !(minV.Compare(p.Val) == 0 && maxV.Compare(p.Val) == 0)
	default:
		return true
	}
}

// possibleString evaluates a predicate against prefix bounds. MinS is
// always a valid lower bound on every value (a prefix never exceeds the
// string it prefixes). The upper side depends on MaxExact: an exact MaxS
// is the true maximum; a truncated one only bounds values below
// prefixSuccessor(MaxS).
func possibleString(p expr.Pred, b ColBounds) bool {
	if p.Val.Typ != schema.String || (p.Between && p.Val2.Typ != schema.String) {
		return true
	}
	lo := b.MinS
	// aboveMax(x) reports certainty that every value is < x.
	aboveMax := func(x string) bool {
		if b.MaxExact {
			return b.MaxS < x
		}
		succ, ok := prefixSuccessor(b.MaxS)
		return ok && succ <= x
	}
	// atMost(x) reports certainty that every value is <= x.
	atMost := func(x string) bool {
		if b.MaxExact {
			return b.MaxS <= x
		}
		succ, ok := prefixSuccessor(b.MaxS)
		return ok && succ <= x
	}
	if p.Between {
		// Impossible iff every value < lo-bound or every value > hi-bound.
		return !(aboveMax(p.Val.S) || lo > p.Val2.S)
	}
	switch p.Op {
	case expr.Lt:
		return lo < p.Val.S
	case expr.Le:
		return lo <= p.Val.S
	case expr.Gt:
		return !atMost(p.Val.S)
	case expr.Ge:
		return !aboveMax(p.Val.S)
	case expr.Eq:
		return !(p.Val.S < lo || aboveMax(p.Val.S))
	case expr.Ne:
		return !(b.MinExact && b.MaxExact && b.MinS == p.Val.S && b.MaxS == p.Val.S)
	default:
		return true
	}
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix; ok is false when none exists (all 0xff).
func prefixSuccessor(s string) (string, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0xff {
			return s[:i] + string([]byte{s[i] + 1}), true
		}
	}
	return "", false
}
