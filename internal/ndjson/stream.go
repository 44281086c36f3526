// Package ndjson writes the NDJSON result stream that nodbd's single-node
// server and its cluster coordinator both serve on /v1/query/stream: a
// header line, one JSON array per row, and a trailer line.
//
// Rows are appended straight from their typed values onto one pending
// buffer — boxed rows with storage.AppendJSONRow, column vectors with
// storage.AppendJSONCols — under one write policy for both servers: the
// first rows after the header go out at once, so the client holds an
// answer as soon as there is one; after that the buffer is written
// whenever it reaches maxPending (64 KiB), one Write and one Flush each.
// A background ticker writes whatever is still pending every
// FlushInterval, so rows that trickle out of a selective scan, or a merge
// waiting on slow shards, reach the client promptly, and the trailer
// writes the rest.
package ndjson

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"nodb/internal/storage"
)

// FlushInterval bounds how long encoded rows may sit in the pending
// buffer before the background ticker writes them out.
const FlushInterval = 50 * time.Millisecond

// maxPending is the pending-buffer size at which appended rows are
// written out.
const maxPending = 64 << 10

// Stream is one NDJSON response in progress. The ResponseWriter is not
// safe for concurrent use, so mu serializes every write between the
// handler and the ticker. Close must be called before the handler
// returns: the writer must not be touched after that.
type Stream struct {
	w       http.ResponseWriter
	flusher http.Flusher

	mu      sync.Mutex
	pending []byte
	rowsOut bool  // rows were written: later ones wait for a full buffer
	err     error // first write error; sticky

	stop chan struct{}
	done chan struct{}
}

// Start writes the NDJSON response headers with status 200 and starts
// the background flush ticker.
func Start(w http.ResponseWriter) *Stream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	s := &Stream{w: w, stop: make(chan struct{}), done: make(chan struct{})}
	s.flusher, _ = w.(http.Flusher)
	go s.tick()
	return s
}

func (s *Stream) tick() {
	defer close(s.done)
	t := time.NewTicker(FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			s.writeLocked()
			s.mu.Unlock()
		case <-s.stop:
			return
		}
	}
}

// Close stops the ticker and waits for it. Rows still pending are
// dropped.
func (s *Stream) Close() {
	close(s.stop)
	<-s.done
}

// Line writes v as one JSON line (the header or a trailer) after any
// pending rows, and flushes. It returns the first write error the stream
// has seen.
func (s *Stream) Line(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := bytes.NewBuffer(s.pending)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return err
	}
	s.pending = buf.Bytes()
	return s.writeLocked()
}

// Append encodes rows onto the pending buffer, one line each, under one
// lock acquisition, and writes the buffer out per the stream's policy. A
// row holding a value JSON cannot represent (a NaN or infinite float)
// stops the batch with a *json.UnsupportedValueError; the rows before it
// stay pending, so a trailer written next follows them exactly as if
// they had been written one by one.
func (s *Stream) Append(rows ...[]storage.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, row := range rows {
		var err error
		if s.pending, err = storage.AppendJSONRow(s.pending, row); err != nil {
			return err
		}
	}
	return s.appendedLocked()
}

// AppendCols is Append for n rows of column vectors (see
// storage.AppendJSONCols), with the same error semantics.
func (s *Stream) AppendCols(cols []*storage.DenseColumn, sel []int32, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.pending, err = storage.AppendJSONCols(s.pending, cols, sel, n); err != nil {
		return err
	}
	return s.appendedLocked()
}

// appendedLocked applies the write policy after rows were appended: the
// first rows go out at once, later ones once the buffer is full. It
// returns the first write error the stream has seen.
func (s *Stream) appendedLocked() error {
	if s.rowsOut && len(s.pending) < maxPending {
		return s.err
	}
	s.rowsOut = true
	return s.writeLocked()
}

func (s *Stream) writeLocked() error {
	if len(s.pending) == 0 || s.err != nil {
		return s.err
	}
	_, s.err = s.w.Write(s.pending)
	s.pending = s.pending[:0]
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return s.err
}
