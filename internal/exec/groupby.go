package exec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"

	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// GroupByOp groups its input by the key columns and emits one output row
// per group in first-appearance order, shaped by slots (proj[Idx] must be
// one of the group keys, as the planner guarantees).
//
// It hashes each batch's typed key vectors: a single int key stored at one
// byte indexes a flat 256-entry table, a wider one probes a
// map[int64]int32; any other key shape is encoded into one reused byte
// buffer and probes a map[string]int32, so only a new group allocates.
// Aggregates accumulate into flat per-group typed states with aggState's
// semantics. The key values of a group are copied when the group appears,
// so no input batch is kept.
type GroupByOp struct {
	opBase
	child Operator
	keys  []ColKey
	specs []AggSpec
	slots []OutSlot
	proj  []ColKey
	size  int

	intIdx  map[int64]int32 // single int key
	small   *[256]int32     // single int key of width 1: gid+1 by uint8(key), 0 = no group yet
	byteIdx map[string]int32
	kbuf    []byte
	kslots  []int // of the key and aggregate columns in the child's batches
	aslots  []int
	kcols   []*storage.DenseColumn // the current batch's key and aggregate vectors
	acols   []*storage.DenseColumn
	ident   []int32
	gids    []int32                // group of each live row of the current batch
	gkeys   []*storage.DenseColumn // per key, one value per group
	aggs    []groupAgg
	n       int // groups
	emit    *windows
}

func NewGroupByOp(child Operator, keys []ColKey, specs []AggSpec, slots []OutSlot, proj []ColKey, batchSize int) *GroupByOp {
	return &GroupByOp{child: child, keys: keys, specs: specs, slots: slots, proj: proj, size: batchSize,
		kslots: make([]int, len(keys)), aslots: make([]int, len(specs)),
		kcols: make([]*storage.DenseColumn, len(keys)), acols: make([]*storage.DenseColumn, len(specs))}
}

func (g *GroupByOp) Name() string {
	return fmt.Sprintf("GroupBy(%v aggs=%d)", g.keys, len(g.specs))
}
func (g *GroupByOp) Children() []Operator { return []Operator{g.child} }
func (g *GroupByOp) Close()               { g.child.Close() }

func (g *GroupByOp) Next() (*Batch, error) {
	if g.emit == nil {
		if err := pull(g.child, g.consume); err != nil {
			return nil, err
		}
		if err := g.shape(); err != nil {
			return nil, err
		}
	}
	return g.observe(g.emit.next()), nil
}

// consume assigns each live row of b to its group, creating groups on
// first appearance, then folds the batch into every aggregate.
func (g *GroupByOp) consume(b *Batch) error {
	if err := g.resolve(b); err != nil {
		return err
	}
	sel := liveRows(b, &g.ident)
	if cap(g.gids) < len(sel) {
		g.gids = make([]int32, b.N)
	}
	gids := g.gids[:len(sel)]
	if g.intIdx != nil {
		switch k := g.kcols[0]; k.Width() {
		case 1:
			if len(g.intIdx) == 0 {
				g.groupSmall(k.I8, sel, gids)
			} else {
				groupInts(g, k.I8, sel, gids)
			}
		case 2:
			groupInts(g, k.I16, sel, gids)
		case 4:
			groupInts(g, k.I32, sel, gids)
		default:
			groupInts(g, k.Ints, sel, gids)
		}
	} else {
		for r, i := range sel {
			g.kbuf = appendKey(g.kbuf[:0], g.kcols, i)
			gid, ok := g.byteIdx[string(g.kbuf)]
			if !ok {
				gid = g.newGroup(i)
				g.byteIdx[string(g.kbuf)] = gid
			}
			gids[r] = gid
		}
	}
	for a := range g.aggs {
		g.aggs[a].add(g.acols[a], sel, gids)
	}
	return nil
}

// groupSmall assigns the rows sel of a one-byte key vector v to their
// groups through the flat table. Once a wider batch has moved the groups
// into the map, one-byte batches probe the map too.
func (g *GroupByOp) groupSmall(v []int8, sel, gids []int32) {
	if g.small == nil {
		g.small = new([256]int32)
	}
	for r, i := range sel {
		slot := &g.small[uint8(v[i])]
		if *slot == 0 {
			*slot = g.newGroup(i) + 1
		}
		gids[r] = *slot - 1
	}
}

// groupInts assigns the rows sel of an int key vector v to their groups
// through the map. Groups the flat table opened (a narrower earlier batch)
// move into the map first.
func groupInts[T storage.Int](g *GroupByOp, v []T, sel, gids []int32) {
	if g.small != nil {
		for k, slot := range g.small {
			if slot != 0 {
				g.intIdx[int64(int8(k))] = slot - 1
			}
		}
		g.small = nil
	}
	for r, i := range sel {
		gid, ok := g.intIdx[int64(v[i])]
		if !ok {
			gid = g.newGroup(i)
			g.intIdx[int64(v[i])] = gid
		}
		gids[r] = gid
	}
}

// resolve looks up b's key and aggregate vectors; the first batch also
// fixes the key index and the state types.
func (g *GroupByOp) resolve(b *Batch) error {
	for j, k := range g.keys {
		if g.kcols[j] = b.ColAt(k, &g.kslots[j]); g.kcols[j] == nil {
			return fmt.Errorf("exec: group key %v not in batch", k)
		}
	}
	for a, s := range g.specs {
		if s.Star {
			continue
		}
		if g.acols[a] = b.ColAt(s.Col, &g.aslots[a]); g.acols[a] == nil {
			return fmt.Errorf("exec: aggregate column %v not in batch", s.Col)
		}
	}
	if g.gkeys != nil {
		return nil
	}
	if len(g.keys) == 1 && g.kcols[0].Typ == schema.Int64 {
		g.intIdx = map[int64]int32{}
	} else {
		g.byteIdx = map[string]int32{}
	}
	g.gkeys = make([]*storage.DenseColumn, len(g.keys))
	for j, c := range g.kcols {
		g.gkeys[j] = storage.NewDense(c.Typ, 0)
	}
	g.aggs = make([]groupAgg, len(g.specs))
	for a, s := range g.specs {
		g.aggs[a] = groupAgg{spec: s, typ: schema.Int64}
		if c := g.acols[a]; c != nil {
			g.aggs[a].typ = c.Typ
			g.aggs[a].ext = storage.NewDense(c.Typ, 0)
		}
	}
	return nil
}

// newGroup opens a group for the row at position i of the current batch.
func (g *GroupByOp) newGroup(i int32) int32 {
	for j, c := range g.kcols {
		appendAt(g.gkeys[j], c, int(i))
	}
	for a := range g.aggs {
		g.aggs[a].open(g.acols[a], int(i))
	}
	g.n++
	return int32(g.n - 1)
}

// appendKey encodes the key of row i: fixed-width integers and float bits
// (NaN canonical, as every NaN prints alike), length-prefixed strings.
func appendKey(buf []byte, cols []*storage.DenseColumn, i int32) []byte {
	for _, c := range cols {
		switch c.Typ {
		case schema.Int64:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Int(int(i))))
		case schema.Float64:
			f := c.Floats[i]
			if math.IsNaN(f) {
				f = math.NaN()
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		default:
			buf = binary.AppendUvarint(buf, uint64(len(c.Strs[i])))
			buf = append(buf, c.Strs[i]...)
		}
	}
	return buf
}

// shape builds the output columns, one value per group, in slot order.
func (g *GroupByOp) shape() error {
	if g.n == 0 {
		g.emit = newWindows(nil, nil, 0, g.size)
		return nil
	}
	cols := make([]*storage.DenseColumn, len(g.slots))
	for i, s := range g.slots {
		if s.Agg {
			cols[i] = g.aggs[s.Idx].result()
			continue
		}
		for j, gk := range g.keys {
			if gk == g.proj[s.Idx] {
				cols[i] = g.gkeys[j]
			}
		}
		if cols[i] == nil {
			return fmt.Errorf("exec: projected column %v is not a group key", g.proj[s.Idx])
		}
	}
	g.emit = newWindows(outKeys(len(cols)), cols, g.n, g.size)
	return nil
}

// groupAgg is one aggregate's state for every group, indexed by group id.
type groupAgg struct {
	spec  AggSpec
	typ   schema.Type // input column type; Int64 for count(*)
	count []int64
	sumI  []int64
	sumF  []float64
	ext   *storage.DenseColumn // min or max so far
}

// open adds the state of a new group whose first row is position i of col
// (nil for count(*)). A min or max starts at that row's value.
func (st *groupAgg) open(col *storage.DenseColumn, i int) {
	switch st.spec.Kind {
	case sql.AggMin, sql.AggMax:
		appendAt(st.ext, col, i)
	case sql.AggSum, sql.AggAvg:
		if st.typ == schema.Int64 {
			st.sumI = append(st.sumI, 0)
		} else {
			st.sumF = append(st.sumF, 0)
		}
	}
	st.count = append(st.count, 0)
}

// add folds the rows sel of col into their groups gids, in row order (float
// sums accumulate in input order, like AggOp).
func (st *groupAgg) add(col *storage.DenseColumn, sel, gids []int32) {
	for _, gid := range gids {
		st.count[gid]++
	}
	switch st.spec.Kind {
	case sql.AggSum, sql.AggAvg:
		switch st.typ {
		case schema.Int64:
			switch col.Width() {
			case 1:
				sumGroups(st.sumI, col.I8, sel, gids)
			case 2:
				sumGroups(st.sumI, col.I16, sel, gids)
			case 4:
				sumGroups(st.sumI, col.I32, sel, gids)
			default:
				sumGroups(st.sumI, col.Ints, sel, gids)
			}
		case schema.Float64:
			v := col.Floats
			for r, i := range sel {
				st.sumF[gids[r]] += v[i]
			}
		}
		// Strings widen to 0 under AsFloat; their sums stay 0.
	case sql.AggMin, sql.AggMax:
		lower := st.spec.Kind == sql.AggMin
		switch st.typ {
		case schema.Int64:
			switch col.Width() {
			case 1:
				foldIntExtreme(st.ext.Ints, col.I8, sel, gids, lower)
			case 2:
				foldIntExtreme(st.ext.Ints, col.I16, sel, gids, lower)
			case 4:
				foldIntExtreme(st.ext.Ints, col.I32, sel, gids, lower)
			default:
				foldIntExtreme(st.ext.Ints, col.Ints, sel, gids, lower)
			}
		case schema.Float64:
			foldExtreme(st.ext.Floats, col.Floats, sel, gids, lower)
		default:
			foldExtreme(st.ext.Strs, col.Strs, sel, gids, lower)
		}
	}
}

// sumGroups adds the rows sel of v to their groups' int64 sums.
func sumGroups[T storage.Int](sum []int64, v []T, sel, gids []int32) {
	for r, i := range sel {
		sum[gids[r]] += int64(v[i])
	}
}

// foldExtreme replaces a group's extreme only by a strictly lower (or
// higher) value, so the first occurrence wins ties and NaN never replaces.
func foldExtreme[T cmp.Ordered](ext, v []T, sel, gids []int32, lower bool) {
	if lower {
		for r, i := range sel {
			if x := v[i]; x < ext[gids[r]] {
				ext[gids[r]] = x
			}
		}
		return
	}
	for r, i := range sel {
		if x := v[i]; x > ext[gids[r]] {
			ext[gids[r]] = x
		}
	}
}

// foldIntExtreme is foldExtreme for an int vector of any width into int64
// extremes.
func foldIntExtreme[T storage.Int](ext []int64, v []T, sel, gids []int32, lower bool) {
	if lower {
		for r, i := range sel {
			if x := int64(v[i]); x < ext[gids[r]] {
				ext[gids[r]] = x
			}
		}
		return
	}
	for r, i := range sel {
		if x := int64(v[i]); x > ext[gids[r]] {
			ext[gids[r]] = x
		}
	}
}

// result returns the aggregate of every group as one column.
func (st *groupAgg) result() *storage.DenseColumn {
	switch st.spec.Kind {
	case sql.AggSum:
		if st.typ == schema.Int64 {
			return &storage.DenseColumn{Typ: schema.Int64, Ints: st.sumI}
		}
		return &storage.DenseColumn{Typ: schema.Float64, Floats: st.sumF}
	case sql.AggAvg:
		avg := make([]float64, len(st.count))
		for g, n := range st.count {
			if st.typ == schema.Int64 {
				avg[g] = float64(st.sumI[g]) / float64(n)
			} else {
				avg[g] = st.sumF[g] / float64(n)
			}
		}
		return &storage.DenseColumn{Typ: schema.Float64, Floats: avg}
	case sql.AggMin, sql.AggMax:
		return st.ext
	default:
		return &storage.DenseColumn{Typ: schema.Int64, Ints: st.count}
	}
}
