package govern

import "fmt"

// LRU evicts the least recently used structure first, regardless of what
// it would cost to rebuild. Kept as the experimental baseline the paper's
// §5.1.3 sketch implies; compare with CostAware via the budget ablation.
type LRU struct{}

// Name implements EvictionPolicy.
func (LRU) Name() string { return "lru" }

// Less implements EvictionPolicy: older last-use goes first.
func (LRU) Less(a, b Candidate) bool { return a.LastUse < b.LastUse }

// CostAware evicts the structure holding the most bytes per second of
// estimated rebuild cost: a big cached column that one cheap positional
// re-load recovers goes long before a positional map of similar size that
// only many full re-tokenization passes would restore. Last use breaks
// ties, least recent first.
type CostAware struct{}

// Name implements EvictionPolicy.
func (CostAware) Name() string { return "cost" }

// Less implements EvictionPolicy.
func (CostAware) Less(a, b Candidate) bool {
	sa, sb := score(a), score(b)
	if sa != sb {
		return sa > sb // more bytes per rebuild-second → evict first
	}
	return a.LastUse < b.LastUse
}

// score is bytes reclaimed per second of rebuild work, as the catalog
// estimates it. A zero or
// unknown cost means the structure is free to rebuild: maximal score.
func score(c Candidate) float64 {
	if c.CostSec <= 0 {
		return float64(c.Bytes) * 1e12
	}
	return float64(c.Bytes) / c.CostSec
}

// PolicyByName maps a policy name to its implementation. The empty string
// selects the default (cost-aware).
func PolicyByName(name string) (EvictionPolicy, error) {
	switch name {
	case "", "cost", "cost-aware":
		return CostAware{}, nil
	case "lru":
		return LRU{}, nil
	default:
		return nil, fmt.Errorf("govern: unknown eviction policy %q (want lru or cost)", name)
	}
}
