package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one op
// share Op; Parent is the ID of the span that caused this one (0 = root).
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns the identifier the spans of one op share.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a finished span and returns its ID for children to name.
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// reserve allocates the ID of a span that is still open, so children
// recorded before it ends can point at it; finish it with set.
func (t *tracer) reserve(op int, name string, start time.Time) int {
	return t.add(0, op, name, start, start)
}

func (t *tracer) set(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// selfTimes sums, per span name, duration minus the part covered by child
// spans. Children of one span never overlap here: every client records
// its calls one after another.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
