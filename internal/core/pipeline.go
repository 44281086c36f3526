package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"nodb/internal/catalog"
	"nodb/internal/exec"
	"nodb/internal/loader"
	"nodb/internal/plan"
)

// This file wires the vectorized operator pipeline (internal/exec's Batch
// operators) into the engine: plans compile into Scan → Filter → Project →
// Aggregate/Join → Sort → Limit trees, and the cursor pulls the root.

// batchSize returns the configured rows-per-batch (DefaultBatchSize when
// unset).
func (e *Engine) batchSize() int {
	if e.opts.BatchSize > 0 {
		return e.opts.BatchSize
	}
	return exec.DefaultBatchSize
}

// batchStream bridges a push-style batch scan (loader.ScanBatchesContext)
// into the pull-based Operator interface. The scan runs in its own
// goroutine under a cancellable child context; Close cancels it, which is
// how a LIMIT cuts a raw-file pass short mid-stream.
type batchStream struct {
	stats  exec.OpStats
	name   string
	ch     chan *exec.Batch
	errc   chan error
	cancel context.CancelFunc
	once   sync.Once
	closed bool
	done   bool
	err    error
}

func newBatchStream(ctx context.Context, name string, run func(context.Context, func(*exec.Batch) error) error) *batchStream {
	sctx, cancel := context.WithCancel(ctx)
	s := &batchStream{
		name:   name,
		ch:     make(chan *exec.Batch, 2),
		errc:   make(chan error, 1),
		cancel: cancel,
	}
	go func() {
		err := run(sctx, func(b *exec.Batch) error {
			select {
			case s.ch <- b:
				return nil
			case <-sctx.Done():
				return sctx.Err()
			}
		})
		s.errc <- err // buffered: never blocks, so Close cannot leak the goroutine
		close(s.ch)
	}()
	return s
}

func (s *batchStream) Name() string              { return s.name }
func (s *batchStream) Children() []exec.Operator { return nil }
func (s *batchStream) Stats() exec.OpStats       { return s.stats }

func (s *batchStream) Next() (*exec.Batch, error) {
	if s.done {
		return nil, s.err
	}
	b, ok := <-s.ch
	if !ok {
		s.done = true
		err := <-s.errc
		if s.closed && errors.Is(err, context.Canceled) {
			err = nil // the cancellation Close itself caused, not a failure
		}
		s.err = err
		return nil, err
	}
	s.stats.Batches++
	s.stats.Rows += int64(b.Rows())
	return b, nil
}

func (s *batchStream) Close() {
	s.once.Do(func() {
		s.closed = true
		s.cancel()
		for range s.ch { // discard until the producer exits
		}
	})
}

// buildPipeline compiles the plan into an operator tree. The returned
// cleanup releases pins taken while building (it is safe to call exactly
// once, after the tree is closed); on error the partially built tree is
// already closed.
func (e *Engine) buildPipeline(ctx context.Context, p *plan.Plan) (exec.Operator, func(), error) {
	size := e.batchSize()
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}

	// Streaming scans keep raw-file row order only with one worker; the
	// buffered loaders always deliver rowID order. Plans that fold rows
	// into order-sensitive results (float sums accumulate in input order)
	// take the buffered source so their answers do not depend on Workers.
	streamOK := len(p.Tables) == 1 && len(p.Joins) == 0 && !p.HasAggregates() &&
		len(p.GroupBy) == 0 && len(p.OrderBy) == 0

	srcs := make([]exec.Operator, 0, len(p.Tables))
	fail := func(err error) (exec.Operator, func(), error) {
		for _, s := range srcs {
			s.Close()
		}
		cleanup()
		return nil, func() {}, err
	}
	for i := range p.Tables {
		op, cl, err := e.tableSource(ctx, &p.Tables[i], size, streamOK)
		if cl != nil {
			cleanups = append(cleanups, cl)
		}
		if err != nil {
			return fail(err)
		}
		srcs = append(srcs, op)
	}

	root := srcs[0]
	for i, edge := range p.Joins {
		root = exec.NewHashJoinOp(root, srcs[i+1], edge.Left, edge.Right, size)
	}

	switch {
	case p.HasAggregates() && len(p.GroupBy) == 0:
		out := make([]int, len(p.Slots))
		for i, s := range p.Slots {
			out[i] = s.Idx
		}
		root = exec.NewAggOp(root, p.Aggs, out)
	case len(p.GroupBy) > 0:
		slots := make([]exec.OutSlot, len(p.Slots))
		for i, s := range p.Slots {
			slots[i] = exec.OutSlot{Agg: s.Agg, Idx: s.Idx}
		}
		root = exec.NewGroupByOp(root, p.GroupBy, p.Aggs, slots, p.Project, size)
	default:
		root = exec.NewProjectOp(root, p.Project)
	}
	switch {
	case len(p.OrderBy) > 0 && p.Limit >= 0:
		root = exec.NewTopKOp(root, p.OrderBy, len(p.Output), p.Limit, size)
	case len(p.OrderBy) > 0:
		root = exec.NewSortOp(root, p.OrderBy, len(p.Output), size)
	}
	root = exec.NewLimitOp(root, p.Limit)
	return root, cleanup, nil
}

// tableSource builds one table's scan subtree: its adaptive load operator
// runs (or streams), and the result enters the pipeline as batches keyed
// under the table's ordinal.
func (e *Engine) tableSource(ctx context.Context, tp *plan.TablePlan, size int, streamOK bool) (exec.Operator, func(), error) {
	t, err := e.cat.Get(tp.Name)
	if err != nil {
		return nil, nil, err
	}
	t.Prepare(prepareCols(t, tp)) // lazy snapshot restore before the load operator runs

	viewSrc := func(v *exec.View, err error) (exec.Operator, func(), error) {
		if err != nil {
			return nil, nil, err
		}
		return exec.NewViewScan(v, size), nil, nil
	}

	switch tp.LoadOp {
	case plan.LoadNone, plan.LoadFull, plan.LoadColumns, plan.LoadSplit:
		if err := e.runLoad(ctx, t, tp); err != nil {
			return nil, nil, err
		}
		return e.denseSource(ctx, t, tp, size)
	case plan.LoadPartialEphemeral:
		if streamOK {
			return e.streamSource(ctx, e.ld, t, tp, size), nil, nil
		}
		return viewSrc(e.ld.PartialScanContext(ctx, t, tp.NeedCols, tp.Conj, tp.Ordinal))
	case plan.LoadExternal:
		if streamOK {
			return e.streamSource(ctx, e.extLd, t, tp, size), nil, nil
		}
		return viewSrc(e.extLd.PartialScanContext(ctx, t, tp.NeedCols, tp.Conj, tp.Ordinal))
	case plan.LoadPartialRetained:
		return viewSrc(e.ld.PartialLoadV2Context(ctx, t, tp.NeedCols, tp.Conj, tp.Ordinal))
	case plan.LoadAuto:
		v, err := e.autoLoad(ctx, t, tp)
		if v != nil || err != nil {
			return viewSrc(v, err)
		}
		return e.denseSource(ctx, t, tp, size)
	default:
		return nil, nil, fmt.Errorf("core: unknown load op %v", tp.LoadOp)
	}
}

// denseSource selects the plan's rows from its pinned dense columns. The
// returned unpin releases the pins once the tree is closed.
func (e *Engine) denseSource(ctx context.Context, t *catalog.Table, tp *plan.TablePlan, size int) (exec.Operator, func(), error) {
	// tp.Pins is exactly the set the scan reads: NeedCols plus the
	// predicate columns (plan.Build computes and Explain displays it).
	src, unpin, err := e.ensureDensePinned(ctx, t, tp.Pins)
	if err != nil {
		return nil, nil, err
	}
	op, err := exec.NewDenseSelect(src, tp.Ordinal, tp.Pins, tp.Conj, size)
	if err != nil {
		unpin()
		return nil, nil, err
	}
	return op, unpin, nil
}

// streamSource wraps a predicate-pushing raw-file scan as a pipeline
// source. Batches arrive post-filter, so no FilterOp follows.
func (e *Engine) streamSource(ctx context.Context, ld *loader.Loader, t *catalog.Table, tp *plan.TablePlan, size int) exec.Operator {
	name := fmt.Sprintf("StreamScan(%s t%d cols=%v)", tp.Name, tp.Ordinal, tp.NeedCols)
	return newBatchStream(ctx, name, func(sctx context.Context, emit func(*exec.Batch) error) error {
		return ld.ScanBatchesContext(sctx, t, tp.NeedCols, tp.Conj, tp.Ordinal, size, emit)
	})
}

// describePipeline renders the operator tree a plan would compile to,
// without executing anything — ExplainContext shows it alongside the
// logical plan. The shapes mirror buildPipeline exactly.
func describePipeline(p *plan.Plan, batchSize int) string {
	streamOK := len(p.Tables) == 1 && len(p.Joins) == 0 && !p.HasAggregates() &&
		len(p.GroupBy) == 0 && len(p.OrderBy) == 0

	src := func(tp *plan.TablePlan) string {
		switch tp.LoadOp {
		case plan.LoadNone, plan.LoadFull, plan.LoadColumns, plan.LoadSplit:
			s := fmt.Sprintf("DenseScan(t%d cols=%v)", tp.Ordinal, tp.Pins)
			if !tp.Conj.Empty() {
				s = fmt.Sprintf("Filter(t%d %d preds)\n  %s", tp.Ordinal, len(tp.Conj.Preds), s)
			}
			return s
		case plan.LoadPartialEphemeral, plan.LoadExternal:
			if streamOK {
				return fmt.Sprintf("StreamScan(%s t%d cols=%v)", tp.Name, tp.Ordinal, tp.NeedCols)
			}
			return fmt.Sprintf("ViewScan(%s t%d)", tp.Name, tp.Ordinal)
		default:
			return fmt.Sprintf("ViewScan(%s t%d)", tp.Name, tp.Ordinal)
		}
	}

	tree := src(&p.Tables[0])
	for i, edge := range p.Joins {
		tree = fmt.Sprintf("HashJoin(%v=%v)\n%s\n%s",
			edge.Left, edge.Right, indent(tree), indent(src(&p.Tables[i+1])))
	}
	switch {
	case p.HasAggregates() && len(p.GroupBy) == 0:
		tree = fmt.Sprintf("Aggregate(%d)\n%s", len(p.Aggs), indent(tree))
	case len(p.GroupBy) > 0:
		tree = fmt.Sprintf("GroupBy(%v aggs=%d)\n%s", p.GroupBy, len(p.Aggs), indent(tree))
	default:
		tree = fmt.Sprintf("Project(%v)\n%s", p.Project, indent(tree))
	}
	switch {
	case len(p.OrderBy) > 0 && p.Limit >= 0:
		tree = fmt.Sprintf("TopK(%d %v)\n%s", p.Limit, p.OrderBy, indent(tree))
	case len(p.OrderBy) > 0:
		tree = fmt.Sprintf("Sort(%v)\n%s", p.OrderBy, indent(tree))
	}
	if p.Limit < 0 {
		tree = "Limit(none)\n" + indent(tree)
	} else {
		tree = fmt.Sprintf("Limit(%d)\n%s", p.Limit, indent(tree))
	}
	return fmt.Sprintf("pipeline (batch=%d):\n%s\n", batchSize, indent(tree))
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}

func indentTree(s string) string {
	return indent(strings.TrimRight(s, "\n")) + "\n"
}
