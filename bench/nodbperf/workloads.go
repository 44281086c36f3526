package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptrace"
	"os"
	"runtime"
	"time"

	"nodb"
)

// workloadSpec is one of the four frozen workloads. Later issues cite
// the names; BENCHMARK.json repeats the reasons.
type workloadSpec struct {
	name    string
	http    bool // drives a nodbd child over loopback /v1 (else the nodb package in-process)
	clients int
	// tailPct is the percentile op_tail_ms reports: the highest that still
	// has at least ten samples beyond it in one run on the seed commit.
	tailPct float64
	warmOps int
	queries int // statements per op
	op      func(r *run, c *client, tr *tracer) sample
}

// httpClients is the closed-loop client count of the HTTP workloads:
// analysts and dashboards waiting for answers, not independent arrivals.
func httpClients() int { return min(2, runtime.NumCPU()) }

var workloads = []workloadSpec{
	{name: "cold-csv", clients: 1, tailPct: 80, warmOps: 3, queries: 1, op: coldOp},
	{name: "adaptive-seq", clients: 1, tailPct: 70, warmOps: 1, queries: 25, op: seqOp},
	{name: "hot-serve", http: true, clients: httpClients(), tailPct: 95, warmOps: 100, queries: 1, op: hotOp},
	{name: "stream-export", http: true, clients: httpClients(), tailPct: 90, warmOps: 3, queries: 1, op: exportOp},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// valueCells converts in-process result rows to oracle cells.
func valueCells(rows [][]nodb.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = make([]any, len(row))
		for j, v := range row {
			switch v.Typ {
			case nodb.Int64:
				out[i][j] = v.I
			case nodb.Float64:
				out[i][j] = v.F
			default:
				out[i][j] = v.S
			}
		}
	}
	return out
}

// check compares an answer with the oracle's.
func (r *run) check(want, got [][]any) error {
	if r.corruptNow() {
		want = [][]any{{"corrupted by the self-test"}}
	}
	return matchRows(want, got)
}

// corruptNow is true once per run when the self-test asked for one wrong
// expectation, to prove that the correctness gate catches it.
func (r *run) corruptNow() bool { return r.corrupt.CompareAndSwap(true, false) }

// workMap flattens the engine's work counters by field name, the same
// names /v1/stats uses, so both kinds of workload share one reader.
func workMap(w nodb.WorkSnapshot) map[string]int64 {
	b, _ := json.Marshal(w)
	var m map[string]int64
	_ = json.Unmarshal(b, &m)
	return m
}

// coldOp is the paper's data-to-answer time: a fresh engine, a raw file
// nobody loaded, one query.
func coldOp(r *run, c *client, tr *tracer) sample {
	q := r.tab.coldQuery(c.rng)
	s := sample{sql: q.sql}
	opNo := tr.newOp()
	t0 := time.Now()
	op := tr.reserve(opNo, "op", t0)
	db := nodb.Open(nodb.Options{Workers: r.workers})
	t1 := time.Now()
	err := db.Attach("wide", nodb.TableSpec{Path: r.csv})
	t2 := time.Now()
	var res *nodb.Result
	if err == nil {
		res, err = db.QueryContext(context.Background(), q.sql)
	}
	t3 := time.Now()
	s.aux, s.work = float64(db.MemSize())/float64(r.tab.baseBytes), workMap(db.Work())
	t4 := time.Now()
	cerr := db.Close()
	t5 := time.Now()
	s.lat, s.ttfb = t5.Sub(t0)-t4.Sub(t3), t3.Sub(t0)
	tr.add(op, opNo, "open", t0, t1)
	tr.add(op, opNo, "attach", t1, t2)
	tr.add(op, opNo, "query", t2, t3)
	tr.add(op, opNo, "close", t4, t5)
	tr.set(op, t5)
	if err == nil {
		err = r.check(q.want, valueCells(res.Rows))
	}
	s.err = errors.Join(err, cerr)
	return s
}

// seqOp is the paper's Figure 3 sequence on a fresh engine — ten Q2
// queries over (a1,a2), ten over (a3,a4) — then a 10 % append, Refresh,
// and the last five queries again. The file is cut back to its original
// length afterwards, untimed, so every op sees the same bytes.
func seqOp(r *run, c *client, tr *tracer) sample {
	var base, grown []query
	for i := 0; i < 20; i++ {
		ci := 2 * (i / 10)
		b, g := r.tab.seqQuery(c.rng, ci, ci+1)
		base, grown = append(base, b), append(grown, g)
	}
	s := sample{sql: base[0].sql}
	opNo := tr.newOp()
	var errs []error
	fail := func(q query, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%w\n  sql: %s", err, q.sql))
		}
	}
	t0 := time.Now()
	op := tr.reserve(opNo, "op", t0)
	db := nodb.Open(nodb.Options{Workers: r.workers})
	t1 := time.Now()
	tr.add(op, opNo, "open", t0, t1)
	err := db.Attach("wide", nodb.TableSpec{Path: r.csv})
	t := time.Now()
	tr.add(op, opNo, "attach", t1, t)
	fail(base[0], err)
	ask := func(q query) time.Duration {
		start := time.Now()
		res, err := db.QueryContext(context.Background(), q.sql)
		end := time.Now()
		tr.add(op, opNo, "query", start, end)
		if err == nil {
			err = r.check(q.want, valueCells(res.Rows))
		}
		fail(q, err)
		return end.Sub(start)
	}
	for i, q := range base {
		d := ask(q)
		switch {
		case i == 0:
			s.first, s.ttfb = d, time.Since(t0)
		case i%10 >= 5:
			s.hot = append(s.hot, d)
		}
	}
	t2 := time.Now()
	fail(base[0], appendFile(r.csv, r.tab.tailCSV))
	t3 := time.Now()
	ref, err := db.Refresh("wide")
	t4 := time.Now()
	tr.add(op, opNo, "refresh", t3, t4)
	s.refresh = t4.Sub(t3)
	if err == nil && (!ref.Grown || ref.RowsAdded != int64(r.tab.tail)) {
		err = fmt.Errorf("Refresh = %+v, want Grown with %d rows added", ref, r.tab.tail)
	}
	fail(base[0], err)
	for _, q := range grown[15:] {
		ask(q)
	}
	t5 := time.Now()
	s.aux, s.work = float64(db.MemSize())/float64(r.tab.baseBytes+int64(len(r.tab.tailCSV))), workMap(db.Work())
	t6 := time.Now()
	fail(base[0], db.Close())
	t7 := time.Now()
	tr.add(op, opNo, "close", t6, t7)
	tr.set(op, t7)
	// The harness's own append and bookkeeping are not the engine's time.
	s.lat = t7.Sub(t0) - t3.Sub(t2) - t6.Sub(t5)
	fail(base[0], os.Truncate(r.csv, r.tab.baseBytes))
	s.err = errors.Join(errs...)
	return s
}

func appendFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// httpSpans records the request's phases as children of an op span.
type httpSpans struct {
	wrote, first time.Time
}

// context hooks the request's phases when the run is traced; the
// untraced run pays nothing for them.
func (h *httpSpans) context(tr *tracer) context.Context {
	if tr == nil {
		return context.Background()
	}
	return httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { h.wrote = time.Now() },
		GotFirstResponseByte: func() { h.first = time.Now() },
	})
}

func (h *httpSpans) record(tr *tracer, opNo int, t0, end time.Time) {
	if tr == nil {
		return
	}
	op := tr.add(0, opNo, "op", t0, end)
	tr.add(op, opNo, "http.send", t0, h.wrote)
	tr.add(op, opNo, "http.first_byte", h.wrote, h.first)
	tr.add(op, opNo, "http.drain", h.first, end)
}

// hotOp is one request of the hot-serve mix against warm columns.
func hotOp(r *run, c *client, tr *tracer) sample {
	q := r.tab.hotQuery(c.rng)
	s := sample{sql: q.sql}
	opNo := tr.newOp()
	var hs httpSpans
	t0 := time.Now()
	resp, err := r.d.post(hs.context(tr), "/v1/query", q.sql)
	if err != nil {
		s.err = err
		return s
	}
	s.ttfb = time.Since(t0)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	s.lat = end.Sub(t0)
	hs.record(tr, opNo, t0, end)
	if err != nil {
		s.err = err
		return s
	}
	var reply queryReply
	if err := json.Unmarshal(body, &reply); err != nil {
		s.err = fmt.Errorf("bad /v1/query body: %v", err)
		return s
	}
	if reply.Stats == nil {
		s.err = errors.New("reply has no stats")
		return s
	}
	s.serverUs = reply.Stats.WallMicros
	got, err := reply.cells(q.want)
	if err == nil {
		err = r.check(q.want, got)
	}
	s.err = err
	return s
}

// exportOp streams about a third of the table as NDJSON and drains it.
func exportOp(r *run, c *client, tr *tracer) sample {
	q, wantRows, wantSum := r.tab.exportQuery(c.rng)
	if r.corruptNow() {
		wantRows++
	}
	s := sample{sql: q.sql}
	opNo := tr.newOp()
	var hs httpSpans
	t0 := time.Now()
	resp, err := r.d.post(hs.context(tr), "/v1/query/stream", q.sql)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	var sum uint64
	var trailer []byte
	if c.br == nil {
		c.br = bufio.NewReaderSize(nil, 256<<10)
	}
	br := c.br
	br.Reset(resp.Body)
	for line := 0; ; line++ {
		b, err := br.ReadSlice('\n')
		if err == io.EOF && len(b) == 0 {
			break
		}
		if err != nil && err != io.EOF {
			s.err = fmt.Errorf("reading stream: %v", err)
			return s
		}
		switch {
		case line == 0:
			if !bytes.HasPrefix(b, []byte(`{"columns":`)) {
				s.err = fmt.Errorf("first line is not the header: %.80s", b)
				return s
			}
		case b[0] == '[':
			if s.rows == 0 {
				s.ttfb = time.Since(t0)
			}
			v, ok := sumIntRow(b)
			if !ok {
				s.err = fmt.Errorf("row %d is not an array of integers: %.80s", s.rows, b)
				return s
			}
			s.rows++
			sum += v
		default:
			trailer = append(trailer[:0], b...)
		}
	}
	end := time.Now()
	s.lat = end.Sub(t0)
	hs.record(tr, opNo, t0, end)
	var tl struct {
		Error string `json:"error"`
		Stats *struct {
			WallMicros int64 `json:"wall_us"`
		} `json:"stats"`
	}
	switch err := json.Unmarshal(trailer, &tl); {
	case err != nil:
		s.err = fmt.Errorf("stream ended without a trailer: %.80s", trailer)
	case tl.Error != "":
		s.err = errors.New("stream error trailer: " + tl.Error)
	case tl.Stats == nil:
		s.err = errors.New("stream ended without the stats trailer")
	case s.rows != wantRows || sum != wantSum:
		s.err = fmt.Errorf("got %d rows with value sum %d, want %d rows with sum %d", s.rows, sum, wantRows, wantSum)
	default:
		s.serverUs = tl.Stats.WallMicros
	}
	return s
}

// sumIntRow adds up the integers of one NDJSON row line, "[1,2,3]\n".
// encoding/json would cost the client more than the row cost the server.
func sumIntRow(b []byte) (sum uint64, ok bool) {
	b = bytes.TrimRight(b, "\r\n")
	if len(b) < 3 || b[0] != '[' || b[len(b)-1] != ']' {
		return 0, false
	}
	var v uint64
	digits, neg := 0, false
	for _, ch := range b[1:] {
		switch {
		case ch >= '0' && ch <= '9':
			v = v*10 + uint64(ch-'0')
			digits++
		case ch == '-' && digits == 0 && !neg:
			neg = true
		case (ch == ',' || ch == ']') && digits > 0:
			if neg {
				v = -v
			}
			sum += v
			v, digits, neg = 0, 0, false
		default:
			return 0, false
		}
	}
	return sum, true
}
