package ndjson

import (
	"errors"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// recorder is a ResponseWriter safe to inspect while the stream's ticker
// writes to it.
type recorder struct {
	mu      sync.Mutex
	header  http.Header
	code    int
	body    strings.Builder
	writes  int
	flushes int
	fail    error
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header  { return r.header }
func (r *recorder) WriteHeader(code int) { r.code = code }

func (r *recorder) Write(b []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return 0, r.fail
	}
	r.writes++
	return r.body.WriteString(string(b))
}

func (r *recorder) Flush() {
	r.mu.Lock()
	r.flushes++
	r.mu.Unlock()
}

func (r *recorder) snapshot() (body string, writes, flushes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.String(), r.writes, r.flushes
}

func intRow(vs ...int64) []storage.Value {
	row := make([]storage.Value, len(vs))
	for i, v := range vs {
		row[i] = storage.IntValue(v)
	}
	return row
}

func TestStreamFraming(t *testing.T) {
	rec := newRecorder()
	s := Start(rec)
	defer s.Close()
	if rec.code != http.StatusOK || rec.header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("headers: %d %v", rec.code, rec.header)
	}
	if err := s.Line(map[string][]string{"columns": {"a<b", "c"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(intRow(1, 2), intRow(3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(intRow(5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Line(map[string]int{"stats": 7}); err != nil {
		t.Fatal(err)
	}
	body, writes, flushes := rec.snapshot()
	if want := "{\"columns\":[\"a<b\",\"c\"]}\n[1,2]\n[3,4]\n[5,6]\n{\"stats\":7}\n"; body != want {
		t.Fatalf("body %q, want %q", body, want)
	}
	// The header, the first rows (at once), then the later row with the
	// trailer: one Write and one Flush each.
	if writes != 3 || flushes != 3 {
		t.Fatalf("%d writes, %d flushes; want 3 of each", writes, flushes)
	}
}

// TestStreamTickerDrainsPending: rows appended after the first, short of
// a full buffer, reach the client once the ticker fires — the
// coordinator's merge relies on this.
func TestStreamTickerDrainsPending(t *testing.T) {
	rec := newRecorder()
	s := Start(rec)
	defer s.Close()
	if err := s.Append(intRow(41)); err != nil {
		t.Fatal(err)
	}
	if body, writes, _ := rec.snapshot(); body != "[41]\n" || writes != 1 {
		t.Fatalf("first row: body %q after %d writes, want it written at once", body, writes)
	}
	if err := s.Append(intRow(42)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * FlushInterval)
	for {
		if body, _, _ := rec.snapshot(); body == "[41]\n[42]\n" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pending row never written by the ticker")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamUnsupportedValue: a NaN stops the batch at that row; the rows
// before it go out ahead of the trailer, exactly as a row-by-row encoder
// would have written them.
func TestStreamUnsupportedValue(t *testing.T) {
	rec := newRecorder()
	s := Start(rec)
	defer s.Close()
	bad := []storage.Value{storage.IntValue(2), storage.FloatValue(math.NaN())}
	err := s.Append(intRow(1), bad, intRow(3))
	if err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("Append = %v, want the unsupported-value error", err)
	}
	if err := s.Line(map[string]string{"error": err.Error()}); err != nil {
		t.Fatal(err)
	}
	if body, _, _ := rec.snapshot(); body != "[1]\n{\"error\":\"json: unsupported value: NaN\"}\n" {
		t.Fatalf("body %q", body)
	}
}

// TestStreamAppendColsUnsupportedValue: a NaN in a column batch stops it
// at that row; the batch's earlier rows stay pending and go out ahead of
// the trailer.
func TestStreamAppendColsUnsupportedValue(t *testing.T) {
	rec := newRecorder()
	s := Start(rec)
	defer s.Close()
	ints := &storage.DenseColumn{Typ: schema.Int64, Ints: []int64{1, 2, 3, 4}}
	floats := &storage.DenseColumn{Typ: schema.Float64, Floats: []float64{0.5, 1.5, math.NaN(), 2}}
	cols := []*storage.DenseColumn{ints, floats}
	if err := s.AppendCols(cols, []int32{0}, 1); err != nil {
		t.Fatal(err)
	}
	err := s.AppendCols(cols, []int32{1, 2, 3}, 3)
	if err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("AppendCols = %v, want the unsupported-value error", err)
	}
	if err := s.Line(map[string]string{"error": err.Error()}); err != nil {
		t.Fatal(err)
	}
	if body, _, _ := rec.snapshot(); body != "[1,0.5]\n[2,1.5]\n{\"error\":\"json: unsupported value: NaN\"}\n" {
		t.Fatalf("body %q", body)
	}
}

// TestStreamPendingBound: a long run of rows is written out as the
// pending buffer fills, not held until the end.
func TestStreamPendingBound(t *testing.T) {
	rec := newRecorder()
	s := Start(rec)
	defer s.Close()
	row := []storage.Value{storage.StringValue(strings.Repeat("x", 1000))}
	for i := 0; i < 3*maxPending/1000; i++ {
		if err := s.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, writes, _ := rec.snapshot(); writes < 2 {
		t.Fatalf("%d writes for %d pending bytes; want the buffer bounded", writes, 3*maxPending)
	}
}

func TestStreamWriteErrorSticks(t *testing.T) {
	rec := newRecorder()
	rec.fail = errors.New("client gone")
	s := Start(rec)
	defer s.Close()
	if err := s.Line(map[string]int{"x": 1}); err == nil {
		t.Fatal("Line on a dead client returned nil")
	}
	if err := s.Append(intRow(1)); err == nil {
		t.Fatal("Append after a write error returned nil")
	}
}
