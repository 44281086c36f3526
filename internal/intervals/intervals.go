// Package intervals implements an ordered set of disjoint half-open int64
// intervals backed by an AVL tree.
//
// The paper (§3.1.3) keeps, for every partially loaded column, "the
// information of which parts are already loaded and where and how they are
// stored. A tree structure that organizes the data parts of each column
// based on values is sufficient, e.g., an AVL-tree or a B-tree." This
// package is that structure: the adaptive store records covered value
// ranges (and covered row ranges) in a Set, asks it whether a query's range
// is already covered, and asks for the gaps when it is not.
package intervals

import (
	"fmt"
	"strings"
)

// Interval is the half-open range [Lo, Hi). An interval with Hi <= Lo is
// empty.
type Interval struct {
	Lo, Hi int64
}

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Len returns the number of points in the interval (0 for empty ones).
func (iv Interval) Len() int64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether x lies in [Lo, Hi).
func (iv Interval) Contains(x int64) bool { return x >= iv.Lo && x < iv.Hi }

// ContainsInterval reports whether o is entirely inside iv. Empty o is
// contained in anything.
func (iv Interval) ContainsInterval(o Interval) bool {
	if o.Empty() {
		return true
	}
	return o.Lo >= iv.Lo && o.Hi <= iv.Hi
}

// Overlaps reports whether the two intervals share at least one point.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo < o.Hi && o.Lo < iv.Hi
}

// Intersect returns the overlap of the two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// node is an AVL tree node holding one disjoint interval.
type node struct {
	iv          Interval
	left, right *node
	height      int
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func (n *node) fix() *node {
	n.height = 1 + max(height(n.left), height(n.right))
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = n.left.rotateLeft()
		}
		return n.rotateRight()
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = n.right.rotateRight()
		}
		return n.rotateLeft()
	}
	return n
}

func (n *node) rotateRight() *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.height = 1 + max(height(n.left), height(n.right))
	l.height = 1 + max(height(l.left), height(l.right))
	return l
}

func (n *node) rotateLeft() *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.height = 1 + max(height(n.left), height(n.right))
	r.height = 1 + max(height(r.left), height(r.right))
	return r
}

func insert(n *node, iv Interval) *node {
	if n == nil {
		return &node{iv: iv, height: 1}
	}
	if iv.Lo < n.iv.Lo {
		n.left = insert(n.left, iv)
	} else {
		n.right = insert(n.right, iv)
	}
	return n.fix()
}

// deleteMin removes and returns the minimum node of the subtree.
func deleteMin(n *node) (rest, min *node) {
	if n.left == nil {
		return n.right, n
	}
	n.left, min = deleteMin(n.left)
	return n.fix(), min
}

func remove(n *node, lo int64) *node {
	if n == nil {
		return nil
	}
	switch {
	case lo < n.iv.Lo:
		n.left = remove(n.left, lo)
	case lo > n.iv.Lo:
		n.right = remove(n.right, lo)
	default:
		if n.left == nil {
			return n.right
		}
		if n.right == nil {
			return n.left
		}
		var succ *node
		n.right, succ = deleteMin(n.right)
		succ.left, succ.right = n.left, n.right
		return succ.fix()
	}
	return n.fix()
}

// Set is a set of int64 points represented as disjoint half-open intervals
// in an AVL tree. The zero value is an empty set ready for use. Set is not
// safe for concurrent mutation; the catalog guards it with its own lock.
type Set struct {
	root  *node
	count int   // number of disjoint intervals
	total int64 // number of covered points
}

// Len returns the number of disjoint intervals in the set.
func (s *Set) Len() int { return s.count }

// Total returns the number of covered points.
func (s *Set) Total() int64 { return s.total }

// Height returns the AVL tree height (for tests of balance).
func (s *Set) Height() int { return height(s.root) }

// Add inserts [lo, hi) into the set, merging any intervals it touches or
// overlaps. Adding an empty interval is a no-op. The common case — iv
// extends one stored interval without reaching another, as an in-order
// append does — widens that interval in place and allocates nothing.
func (s *Set) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Merge with every stored interval that overlaps or is adjacent to iv.
	// Adjacency ([1,3) + [3,5)) merges too, keeping the representation
	// canonical.
	for {
		ov, ok := s.findTouching(iv)
		if !ok {
			break
		}
		iv.Lo, iv.Hi = min(iv.Lo, ov.Lo), max(iv.Hi, ov.Hi)
		if s.widen(ov.Lo, iv) {
			s.total += iv.Len() - ov.Len()
			return
		}
		s.root = remove(s.root, ov.Lo)
		s.count--
		s.total -= ov.Len()
	}
	s.root = insert(s.root, iv)
	s.count++
	s.total += iv.Len()
}

// findTouching returns any stored interval that overlaps or is adjacent to
// iv.
func (s *Set) findTouching(iv Interval) (Interval, bool) {
	n := s.root
	for n != nil {
		// Adjacent-or-overlapping test against the widened interval.
		if n.iv.Lo <= iv.Hi && iv.Lo <= n.iv.Hi {
			return n.iv, true
		}
		if iv.Hi < n.iv.Lo {
			n = n.left
		} else {
			n = n.right
		}
	}
	return Interval{}, false
}

// widen replaces the stored interval starting at lo with to (a superset of
// it) when to touches neither in-order neighbour, reporting whether it
// did. Search-tree order survives: every key left of the node stays below
// to.Lo, every key right of it above to.Hi.
func (s *Set) widen(lo int64, to Interval) bool {
	var pred, succ *node // nearest ancestors on the left and right
	n := s.root
	for n != nil && n.iv.Lo != lo {
		if lo < n.iv.Lo {
			succ, n = n, n.left
		} else {
			pred, n = n, n.right
		}
	}
	if n == nil {
		return false
	}
	if l := n.left; l != nil {
		for l.right != nil {
			l = l.right
		}
		pred = l
	}
	if r := n.right; r != nil {
		for r.left != nil {
			r = r.left
		}
		succ = r
	}
	if (pred != nil && pred.iv.Hi >= to.Lo) || (succ != nil && succ.iv.Lo <= to.Hi) {
		return false
	}
	n.iv = to
	return true
}

// Contains reports whether the point x is covered.
func (s *Set) Contains(x int64) bool {
	n := s.root
	for n != nil {
		switch {
		case n.iv.Contains(x):
			return true
		case x < n.iv.Lo:
			n = n.left
		default:
			n = n.right
		}
	}
	return false
}

// Covers reports whether every point of iv is covered by the set. Because
// stored intervals are kept disjoint and merged when adjacent, iv is covered
// iff a single stored interval contains it.
func (s *Set) Covers(iv Interval) bool {
	if iv.Empty() {
		return true
	}
	n := s.root
	for n != nil {
		switch {
		case n.iv.ContainsInterval(iv):
			return true
		case iv.Hi <= n.iv.Lo:
			n = n.left
		case iv.Lo >= n.iv.Hi:
			n = n.right
		default:
			// Partial overlap with a maximal stored interval: since
			// intervals are disjoint and non-adjacent, the remainder
			// cannot be covered elsewhere.
			return false
		}
	}
	return false
}

// Missing returns the sub-intervals of iv not covered by the set, in
// ascending order. An empty result means iv is fully covered.
func (s *Set) Missing(iv Interval) []Interval {
	if iv.Empty() {
		return nil
	}
	var covered []Interval
	collectOverlaps(s.root, iv, &covered)
	var gaps []Interval
	cursor := iv.Lo
	for _, c := range covered { // covered arrives sorted by Lo
		if c.Lo > cursor {
			gaps = append(gaps, Interval{Lo: cursor, Hi: c.Lo})
		}
		if c.Hi > cursor {
			cursor = c.Hi
		}
	}
	if cursor < iv.Hi {
		gaps = append(gaps, Interval{Lo: cursor, Hi: iv.Hi})
	}
	return gaps
}

func collectOverlaps(n *node, iv Interval, out *[]Interval) {
	if n == nil {
		return
	}
	if iv.Lo < n.iv.Hi { // left subtree may overlap
		collectOverlaps(n.left, iv, out)
	}
	if n.iv.Overlaps(iv) {
		*out = append(*out, n.iv.Intersect(iv))
	}
	if iv.Hi > n.iv.Lo { // right subtree may overlap
		collectOverlaps(n.right, iv, out)
	}
}

// All returns the disjoint intervals in ascending order.
func (s *Set) All() []Interval {
	out := make([]Interval, 0, s.count)
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, n.iv)
		walk(n.right)
	}
	walk(s.root)
	return out
}

// Clear removes all intervals.
func (s *Set) Clear() { s.root, s.count, s.total = nil, 0, 0 }

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{count: s.count, total: s.total}
	var cp func(*node) *node
	cp = func(n *node) *node {
		if n == nil {
			return nil
		}
		return &node{iv: n.iv, left: cp(n.left), right: cp(n.right), height: n.height}
	}
	c.root = cp(s.root)
	return c
}

func (s *Set) String() string {
	ivs := s.All()
	parts := make([]string, len(ivs))
	for i, iv := range ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
