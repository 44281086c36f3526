package core

import (
	"context"
	"fmt"
	"strings"

	"nodb/internal/exec"
	"nodb/internal/metrics"
	"nodb/internal/plan"
	"nodb/internal/qos"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// resultKey derives the statement's result-cache key: the normalized
// rendering of the fully bound statement plus, per touched table, the raw
// file's identity and signature. Signatures change when a file is edited,
// so a stale result is simply never looked up again — invalidation needs
// no bookkeeping. Returns "" (uncacheable) when the statement still has
// unbound parameters or references an unknown table (execution will
// surface that error).
func (e *Engine) resultKey(stmt *sql.SelectStmt) string {
	if stmt.NumParams != 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(sql.Normalize(stmt.String()))
	appendTable := func(name string) bool {
		t, err := e.cat.Get(name)
		if err != nil {
			return false
		}
		sig := t.Signature()
		fmt.Fprintf(&sb, "\x00%s=%s:%d:%d:%d:%d", name, t.Path(), sig.Size, sig.ModTime, sig.Prefix, sig.Tail)
		return true
	}
	if !appendTable(stmt.From.Name) {
		return ""
	}
	for _, j := range stmt.Joins {
		if !appendTable(j.Table.Name) {
			return ""
		}
	}
	return sb.String()
}

// cachedRows serves a cached (or singleflight-shared) result through a
// regular cursor, so callers cannot tell a replay from an execution: a
// ViewScan over the result's columns, which the cache owns and nothing
// writes.
func (e *Engine) cachedRows(ctx context.Context, res *qos.CachedResult, before metrics.Snapshot, timer metrics.Timer, note string) *Rows {
	r := e.newRows(ctx, append([]string(nil), res.Columns...), before, timer)
	r.open = func() (exec.Operator, error) {
		v := exec.NewView()
		for j, c := range res.Cols {
			v.AddCol(exec.OutKey(j), c)
		}
		return exec.NewViewScan(v, e.batchSize()), nil
	}
	r.end = func(error) string { return res.Plan + note }
	return r
}

// finishFlight ends the singleflight r leads. A complete result the sink
// could hold is published to the cache first, then to the waiting
// followers (a follower that misses the Finish window still finds the
// cache entry); otherwise the followers are woken to run for themselves.
func (e *Engine) finishFlight(qkey string, r *Rows, planText string, err error) {
	if err != nil || r.closed || r.sink.overflow {
		e.qflight.Finish(qkey, nil, err)
		return
	}
	res := &qos.CachedResult{
		Columns: append([]string(nil), r.cols...),
		Cols:    r.sink.cols,
		Plan:    planText,
	}
	e.qcache.Put(qkey, res)
	e.qflight.Finish(qkey, res, nil)
}

// ownPlan attributes the adaptive structures the plan read to the tenant,
// so the governor's per-tenant pass charges them to whoever used them
// last.
func (e *Engine) ownPlan(p *plan.Plan, tenant string) {
	for i := range p.Tables {
		t, err := e.cat.Get(p.Tables[i].Name)
		if err != nil {
			continue
		}
		t.Own(p.Tables[i].Pins, tenant)
	}
}

// resultSink accumulates a private copy of the rows a cursor hands out,
// for admission to the result cache: each batch's live rows are appended
// to typed columns. It stops copying — and poisons itself — once the copy
// exceeds the cache's per-entry bound, so an unexpectedly huge result
// costs at most the bound in transient memory.
type resultSink struct {
	cols     []*storage.DenseColumn
	bytes    int64
	max      int64
	overflow bool
}

func (s *resultSink) add(vecs []*storage.DenseColumn, sel []int32, n int) {
	if s == nil || s.overflow {
		return
	}
	if s.cols == nil {
		s.cols = make([]*storage.DenseColumn, len(vecs))
		for j, v := range vecs {
			s.cols[j] = storage.NewDense(v.Typ, n)
		}
	}
	for j, v := range vecs {
		c := s.cols[j]
		from := len(c.Strs)
		c.AppendSelected(v, sel, n)
		if c.Typ != schema.String {
			s.bytes += int64(n) * 8
			continue
		}
		for _, str := range c.Strs[from:] {
			s.bytes += int64(len(str)) + 16
		}
	}
	if s.max > 0 && s.bytes > s.max {
		s.overflow, s.cols = true, nil
	}
}
