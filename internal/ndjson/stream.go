// Package ndjson writes the NDJSON result stream that nodbd's single-node
// server and its cluster coordinator both serve on /v1/query/stream: a
// header line, one JSON array per row, and a trailer line.
//
// Rows are appended straight from their typed values onto one pending
// buffer (storage.AppendJSONRow) and reach the client a batch at a time:
// the handler calls Flush after each batch it hands over, which costs one
// Write and one Flush for the whole batch. A background ticker writes out
// whatever is still pending every FlushInterval, so rows that trickle
// out of a selective scan, or a merge waiting on slow shards, reach the
// client promptly even before a batch boundary.
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

// maxPending caps the pending buffer: Append writes it out once it grows
// past this, so a long run of rows between Flush calls stays bounded.
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

// Close stops the ticker and waits for it. Rows appended but never
// flushed are dropped.
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
// lock acquisition. A row holding a value JSON cannot represent (a NaN or
// infinite float) stops the batch with a *json.UnsupportedValueError;
// the rows before it stay pending, so a trailer written next follows
// them exactly as if they had been written one by one.
func (s *Stream) Append(rows ...[]storage.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, row := range rows {
		var err error
		if s.pending, err = storage.AppendJSONRow(s.pending, row); err != nil {
			return err
		}
		if len(s.pending) >= maxPending {
			if err := s.writeLocked(); err != nil {
				return err
			}
		}
	}
	return s.err
}

// Flush writes the pending rows out with one Write and one Flush. It
// returns the first write error the stream has seen.
func (s *Stream) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
