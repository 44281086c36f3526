// Package scan implements tokenization of raw flat files (CSV and NDJSON).
//
// It follows the design of the paper's adaptive loading operators (§3.2):
// the file is split into horizontal portions, which workers read a chunk
// at a time. Tokenization of a row stops as soon as all attributes a query
// needs have been found, and a pushed-down predicate can abandon the rest
// of a row the moment it fails ("early tuple elimination").
//
// A projected CSV scan on a CPU with AVX2 tokenizes in two stages per
// chunk (Langdale and Lemire's structural index). Stage 1 marks every
// newline and every delimiter of the chunk in two bitmaps, one bit per
// byte (index_amd64.s). Stage 2 walks the bits: TrailingZeros64 finds each
// row's end, and reaching attribute k counts k delimiters off with
// OnesCount64 a word at a time instead of reading the bytes between. The
// byte walk — IndexByte per row, skipDelims per gap — is the reference,
// the path on every other CPU and format, and the reporter of every
// malformed row: the bit walk hands a row that ends too early back to it.
//
// Both supported formats are newline-delimited, so portioning, row
// counting, parallel scheduling and positional maps are shared; only the
// per-row attribute locator differs (the rowTokenizer interface). The
// NDJSON locator practices *delayed parsing*: it finds the byte ranges of
// just the requested fields and skips every other value structurally,
// without decoding it.
//
// Field bytes handed to callbacks alias the scanner's internal buffer and
// are only valid for the duration of the callback; parse or copy them
// before returning.
package scan

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"nodb/internal/errs"
	"nodb/internal/metrics"
	"nodb/internal/vfs"
)

// DefaultChunkSize is the streaming read granularity. It doubles as the
// target portion size: portions are the unit of parallel scheduling and of
// synopsis-based skipping, so megabyte-granularity keeps both effective.
const DefaultChunkSize = 1 << 20

// maxPortions bounds the portion count so layouts stay small even for very
// large files. minPortionBytes bounds how finely a mid-size file is split
// when the worker count calls for more portions than chunk-sized ones.
const (
	maxPortions     = 4096
	minPortionBytes = 64 << 10
)

// Format identifies the on-disk layout of a raw file. Every format the
// engine queries in situ is newline-delimited, so the scanner's portioning
// and row-boundary machinery applies to all of them; the Format selects
// the per-row attribute locator.
type Format int

const (
	// FormatCSV is delimiter-separated fields, one row per line.
	FormatCSV Format = iota
	// FormatNDJSON is one JSON object per line. Attribute indices map to
	// Options.FieldNames; values are located by key and handed to callbacks
	// as raw JSON tokens (strings keep their quotes) for delayed parsing.
	FormatNDJSON
)

func (f Format) String() string {
	switch f {
	case FormatNDJSON:
		return "ndjson"
	default:
		return "csv"
	}
}

// Options configures a Scanner.
type Options struct {
	// Format selects the per-row attribute locator; defaults to FormatCSV.
	Format Format
	// FieldNames maps attribute indices to JSON object keys. Required for
	// FormatNDJSON (the schema supplies it); ignored for CSV.
	FieldNames []string
	// Delimiter separates attributes; defaults to ','.
	Delimiter byte
	// Workers is the number of parallel tokenization workers; 0 (the
	// default) means runtime.GOMAXPROCS(0) — scans are parallel by
	// default. Portions are scheduled onto workers from a queue, so the
	// portion count is independent of the worker count.
	Workers int
	// ChunkSize is the streaming read size; defaults to DefaultChunkSize.
	// It is also the target portion size for parallel scheduling.
	ChunkSize int
	// SkipHeader skips the first line of the file.
	SkipHeader bool
	// Counters, when non-nil, receives work accounting.
	Counters *metrics.Counters
	// Context, when non-nil, cancels a scan cooperatively: the chunk
	// loops check it between reads, so a cancelled scan stops after at
	// most one chunk instead of finishing a multi-MB file pass.
	Context context.Context
	// Layout supplies pre-learned portion boundaries (typically from a
	// table's scan synopsis), skipping the boundary-discovery and
	// row-counting pre-pass entirely. The layout must describe this exact
	// file version: contiguous newline-aligned ranges whose last portion
	// ends at the file size. An inconsistent layout is ignored and the
	// scanner rebuilds its own.
	Layout []PortionInfo
	// Portioned forces a multi-portion layout (with its row-count
	// pre-pass) even for a sequential scan. Loaders set it when a synopsis
	// will remember the layout: the pre-pass then runs once per file
	// version, and every later scan both skips it and gains
	// portion-granular pruning. Without it, a sequential scan keeps the
	// classic single-portion stream that reads the file exactly once.
	Portioned bool
	// StartOffset begins the scan at this byte offset instead of the top
	// of the file. It must be newline-aligned (the first byte of a row);
	// the caller vouches for that — typically it is a previously validated
	// file size, so the bytes before it are known to end in '\n'. Row ids
	// are numbered from 0 at StartOffset. SkipHeader still applies first;
	// the larger of the two wins. Used by incremental tail extension to
	// scan only the bytes appended after a prefix-stable growth.
	StartOffset int64
	// MaxOffset, when > 0, caps the scan at this byte offset: the scanner
	// treats the file as MaxOffset bytes long even if it has since grown.
	// It must be newline-aligned (just past a '\n'). Tail extension sets
	// it to the end of the last complete appended row, so a half-written
	// append is never half-tokenized.
	MaxOffset int64
	// FS is the filesystem the scanner reads through; nil means the
	// real disk. Tests substitute a fault-injecting FS here.
	FS vfs.FS
}

func (o Options) fs() vfs.FS { return vfs.Default(o.FS) }

// canceled reports the context's error, if any. Checked once per chunk —
// cheap relative to a ChunkSize read.
func (o Options) canceled() error {
	if o.Context == nil {
		return nil
	}
	if err := o.Context.Err(); err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	return nil
}

func (o Options) delim() byte {
	if o.Delimiter == 0 {
		return ','
	}
	return o.Delimiter
}

// workers resolves Workers to the actual parallelism: 0 (unset) means one
// worker per CPU, negative means sequential, anything else is taken
// literally.
func (o Options) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 0 {
		return 1
	}
	return o.Workers
}

func (o Options) chunkSize() int {
	if o.ChunkSize <= 0 {
		return DefaultChunkSize
	}
	return o.ChunkSize
}

// FieldRef is one located attribute within a row. Bytes aliases the scan
// buffer; Offset is the absolute byte offset of the field's first character
// in the file (used to build positional maps).
type FieldRef struct {
	Bytes  []byte
	Offset int64
}

// RowHandler receives one tokenized row. fields[i] corresponds to cols[i]
// of the ScanColumns call (or to attribute i when scanning all columns).
//
// Concurrency contract: when Workers > 1 the same handler is called from
// several goroutines at once, one per portion in flight; within a portion
// calls come from a single goroutine with ascending rowIDs from a
// contiguous range. Every row id is delivered at most once per scan, so a
// handler may write its row's slot of a slice pre-sized to NumRows
// without a lock — that is how loaders fill dense columns and positional
// offsets in parallel. Any other shared state (maps, appends, counters)
// must be synchronized by the handler, or kept per portion via
// ScanColumnsPortioned.
type RowHandler func(rowID int64, fields []FieldRef) error

// AbandonFunc is consulted after each requested column of a row is
// tokenized, in file order; idx is the index into cols. Returning true
// abandons the row: no further attributes are tokenized and the handler is
// not called. This is the paper's predicate push-down into loading.
type AbandonFunc func(idx int, field FieldRef) bool

// PortionInfo describes one horizontal portion of the file: a
// newline-aligned byte range plus the global row ids it holds. Rows is -1
// when the portion has not been counted (single-portion lazy scans).
type PortionInfo struct {
	Index    int
	Off, End int64 // byte range [Off, End)
	FirstRow int64 // global row id of the portion's first row
	Rows     int64 // data rows in the portion, or -1 when uncounted
}

// LineHandler receives one row whole, for callers that locate its
// attributes themselves: the row's global id, the file offset of its first
// byte, and its bytes without the newline (or a trailing CR). The line
// aliases the scan buffer and is valid only for the call.
type LineHandler func(rowID, lineOff int64, line []byte) error

// PortionFuncs are the per-portion callbacks of ScanColumnsPortioned and
// ScanLines. All fields are optional. With Workers > 1 they are invoked
// concurrently from the worker goroutines, but each portion's
// Begin/rows/End sequence runs on a single goroutine.
type PortionFuncs struct {
	// Skip is consulted once per portion, before any of its bytes are
	// read; returning true prunes the portion outright. It is only
	// consulted for portions whose row count is known (so skipped rows
	// stay accounted). Skipping never changes results when the decision is
	// based on conservative value bounds — see internal/synopsis.
	Skip func(p PortionInfo) bool
	// Begin returns the row handler and abandon hook for one portion,
	// letting callers accumulate per-portion state (synopsis bounds)
	// without locks.
	Begin func(p PortionInfo) (RowHandler, AbandonFunc)
	// Lines replaces Begin in ScanLines, which requires it: it returns one
	// portion's line handler, which receives the portion's rows
	// untokenized.
	Lines func(p PortionInfo) LineHandler
	// End observes a portion completing cleanly, with the number of rows
	// it tokenized. It is not called for skipped or failed portions.
	End func(p PortionInfo, rows int64) error
}

// RowTailHandler receives one tokenized row plus the un-tokenized remainder
// of the line after the last requested column (without the delimiter that
// preceded it). tail.Bytes is empty when the row ends at the last requested
// column. Split-file writing uses the tail to emit the "non tokenized
// columns" file without tokenizing them.
type RowTailHandler func(rowID int64, fields []FieldRef, tail FieldRef) error

// ErrStop can be returned by a RowHandler to stop the scan early without
// reporting an error.
var ErrStop = errors.New("scan: stop")

// Scanner tokenizes one raw file. It is created by Open and may be used for
// multiple scans; each scan re-reads the file (that is the point: the cost
// of going back to the raw file is what the adaptive store avoids).
type Scanner struct {
	path string
	opts Options
	size int64

	portionsOnce sync.Once
	portionsErr  error
	portions     []portion
	rows         int64 // -1 until counted (single-portion scans skip counting)
	countOnce    sync.Once
	countErr     error
	dataStart    int64 // after optional header

	scannedRows     atomic.Int64 // rows tokenized by the most recent scan
	skippedRows     atomic.Int64 // rows in portions pruned by the most recent scan
	skippedPortions atomic.Int64 // portions pruned by the most recent scan
}

// portion is a horizontal slice of the file aligned on row boundaries.
type portion struct {
	off, end int64 // byte range [off, end)
	firstRow int64 // global row id of first row
	rows     int64
}

// Open prepares a Scanner for path. The file must exist; its size is
// captured now and a scan reads at most that many bytes, so a file being
// appended to mid-scan yields the prefix.
func Open(path string, opts Options) (*Scanner, error) {
	st, err := opts.fs().Stat(path)
	if err != nil {
		return nil, errs.Wrap(errs.ErrRawIO, "scan stat", path, err)
	}
	size := st.Size()
	if opts.MaxOffset > 0 && opts.MaxOffset < size {
		size = opts.MaxOffset
	}
	return &Scanner{path: path, opts: opts, size: size}, nil
}

// Path returns the scanned file's path.
func (s *Scanner) Path() string { return s.path }

// Size returns the file size in bytes at Open time.
func (s *Scanner) Size() int64 { return s.size }

// NumRows returns the number of data rows, running phase-1 tokenization
// (row boundary identification) if it has not run yet. Single-portion
// scanners defer the counting pass until someone actually asks.
func (s *Scanner) NumRows() (int64, error) {
	if err := s.ensurePortions(); err != nil {
		return 0, err
	}
	if s.rows >= 0 {
		return s.rows, nil
	}
	s.countOnce.Do(func() {
		f, err := s.opts.fs().Open(s.path)
		if err != nil {
			s.countErr = errs.Wrap(errs.ErrRawIO, "scan open", s.path, err)
			return
		}
		defer f.Close()
		buf := make([]byte, s.readBufSize())
		var total int64
		for i := range s.portions {
			n, err := countRows(f, s.portions[i].off, s.portions[i].end, s.opts, buf)
			if err != nil {
				s.countErr = err
				return
			}
			s.portions[i].rows = n
			total += n
		}
		s.rows = total
	})
	if s.countErr != nil {
		return 0, s.countErr
	}
	return s.rows, nil
}

// RowsScanned returns the number of rows tokenized by the most recent
// ScanColumns/ScanColumnsTail call. For a scan that ran to completion,
// RowsScanned()+RowsSkipped() is the file's total row count.
func (s *Scanner) RowsScanned() int64 { return s.scannedRows.Load() }

// RowsSkipped returns the number of rows inside portions the most recent
// scan pruned via PortionFuncs.Skip (their bytes were never read).
func (s *Scanner) RowsSkipped() int64 { return s.skippedRows.Load() }

// PortionsSkipped returns the number of portions the most recent scan
// pruned.
func (s *Scanner) PortionsSkipped() int64 { return s.skippedPortions.Load() }

// Portions returns the scan's portion layout, building it (including the
// row-count pre-pass for multi-portion layouts) if needed. Single-portion
// layouts report Rows == -1 until a full scan discovers the count. The
// returned slice is a copy.
func (s *Scanner) Portions() ([]PortionInfo, error) {
	if err := s.ensurePortions(); err != nil {
		return nil, err
	}
	out := make([]PortionInfo, len(s.portions))
	for i, p := range s.portions {
		out[i] = PortionInfo{Index: i, Off: p.off, End: p.end, FirstRow: p.firstRow, Rows: p.rows}
	}
	return out, nil
}

// ensurePortions runs phase 1: find the header end, split the file into
// worker portions aligned to newlines, and count rows per portion so every
// portion knows the global row id of its first row.
func (s *Scanner) ensurePortions() error {
	s.portionsOnce.Do(func() { s.portionsErr = s.buildPortions() })
	return s.portionsErr
}

func (s *Scanner) buildPortions() error {
	if s.adoptLayout() {
		return nil
	}
	f, err := s.opts.fs().Open(s.path)
	if err != nil {
		return errs.Wrap(errs.ErrRawIO, "scan open", s.path, err)
	}
	defer f.Close()

	probe := make([]byte, boundaryProbeSize)
	s.dataStart = 0
	if s.opts.SkipHeader {
		off, err := findLineEnd(f, 0, s.size, probe)
		if err != nil {
			return err
		}
		s.dataStart = off
	}
	if s.opts.StartOffset > s.dataStart {
		s.dataStart = s.opts.StartOffset
	}
	if s.dataStart >= s.size {
		s.portions = nil
		s.rows = 0
		return nil
	}

	// Portion count is decoupled from the worker count: portions are the
	// unit of synopsis skipping and of work scheduling, so they target the
	// chunk size, refined downward (to a floor) only when the worker count
	// calls for more portions than chunk-sized ones. A sequential scan
	// without Portioned keeps the classic single-portion streaming pass
	// with no counting pre-pass; multi-portion layouts for it arrive
	// pre-learned via Options.Layout or are forced by Options.Portioned.
	span := s.size - s.dataStart
	w := int64(s.opts.workers())
	n := int64(1)
	if w > 1 || s.opts.Portioned {
		target := int64(s.opts.chunkSize())
		if per := span / w; per < target {
			target = per
			if target < minPortionBytes {
				target = minPortionBytes
			}
		}
		n = (span + target - 1) / target
		if n > maxPortions {
			n = maxPortions
		}
	}
	if n <= 1 {
		// A single-portion scan needs no counting pre-pass: rows are
		// numbered as they stream. NumRows stays lazy.
		s.portions = []portion{{off: s.dataStart, end: s.size, firstRow: 0, rows: -1}}
		s.rows = -1
		return nil
	}

	per := span / n
	bounds := make([]int64, 0, n+1)
	bounds = append(bounds, s.dataStart)
	for i := int64(1); i < n; i++ {
		nominal := s.dataStart + i*per
		aligned, err := findLineEnd(f, nominal, s.size, probe)
		if err != nil {
			return err
		}
		if aligned > bounds[len(bounds)-1] && aligned < s.size {
			bounds = append(bounds, aligned)
		}
	}
	bounds = append(bounds, s.size)

	// Count rows per portion in parallel; global row ids fall out of a
	// prefix sum. This pre-pass runs once per layout: scans that receive
	// the learned layout via Options.Layout skip it entirely.
	parts := make([]portion, len(bounds)-1)
	for i := range parts {
		parts[i] = portion{off: bounds[i], end: bounds[i+1]}
	}
	if err := s.countPortions(f, parts, int(w)); err != nil {
		return err
	}
	var firstRow int64
	for i := range parts {
		parts[i].firstRow = firstRow
		firstRow += parts[i].rows
	}
	s.portions = parts
	s.rows = firstRow
	return nil
}

// countPortions counts the rows of every portion on up to w workers. Each
// worker pulls the next portion off a shared index and reads through one
// buffer of its own for the whole pre-pass (ReadAt on one file is safe
// for concurrent use). It returns the error of the first failed portion.
func (s *Scanner) countPortions(f vfs.File, parts []portion, w int) error {
	fails := make([]error, len(parts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(w, len(parts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, s.readBufSize())
			for i := int(next.Add(1) - 1); i < len(parts); i = int(next.Add(1) - 1) {
				n, err := countRows(f, parts[i].off, parts[i].end, s.opts, buf)
				if err != nil {
					fails[i] = err
					return
				}
				parts[i].rows = n
			}
		}()
	}
	wg.Wait()
	for _, err := range fails {
		if err != nil {
			return err
		}
	}
	return nil
}

// carryRoom is the read-buffer space beyond one chunk, for the partial
// row a chunk leaves to the next read.
const carryRoom = 4096

// readBufSize is the size of one worker's read buffer: a chunk plus
// carryRoom, or the scanned bytes plus carryRoom when they span less than
// a chunk. Each worker allocates one for a whole pass, so a pass's read
// memory is workers × (ChunkSize + carryRoom), whatever the file size.
func (s *Scanner) readBufSize() int {
	n := int64(s.opts.chunkSize())
	if span := s.size - s.dataStart; span < n {
		n = span
	}
	return int(n) + carryRoom
}

// boundaryProbeSize is the read size used to locate a single newline when
// aligning portion boundaries; rows are almost always far shorter, and
// findLineEnd keeps reading forward when one is not.
const boundaryProbeSize = 4096

// adoptLayout installs Options.Layout as the portion set when it passes
// validation: contiguous ascending ranges with known row counts and
// consistent first-row prefix sums, ending exactly at the file size.
// Newline alignment is trusted — the layout came from a scan of the same
// file version (the raw-file signature check lives in the catalog).
func (s *Scanner) adoptLayout() bool {
	l := s.opts.Layout
	if len(l) == 0 {
		return false
	}
	if l[0].Off < 0 || l[len(l)-1].End != s.size {
		return false
	}
	var firstRow int64
	for i, p := range l {
		if p.End <= p.Off || p.Rows < 0 || p.FirstRow != firstRow {
			return false
		}
		if i > 0 && p.Off != l[i-1].End {
			return false
		}
		firstRow += p.Rows
	}
	s.dataStart = l[0].Off
	s.portions = make([]portion, len(l))
	for i, p := range l {
		s.portions[i] = portion{off: p.Off, end: p.End, firstRow: p.FirstRow, rows: p.Rows}
	}
	s.rows = firstRow
	return true
}

// findLineEnd returns the offset just past the first '\n' at or after off,
// or end if none, reading through buf.
func findLineEnd(f vfs.File, off, end int64, buf []byte) (int64, error) {
	for off < end {
		n := int64(len(buf))
		if off+n > end {
			n = end - off
		}
		m, err := f.ReadAt(buf[:n], off)
		if m > 0 {
			if i := bytes.IndexByte(buf[:m], '\n'); i >= 0 {
				return off + int64(i) + 1, nil
			}
			off += int64(m)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, errs.Wrap(errs.ErrRawIO, "scan read", f.Name(), err)
		}
	}
	return end, nil
}

// countRows counts data rows in [off, end), reading through buf. A final
// line without a trailing newline counts as a row.
func countRows(f vfs.File, off, end int64, o Options, buf []byte) (int64, error) {
	c := o.Counters
	var rows int64
	lastByte := byte('\n')
	pos := off
	for pos < end {
		if err := o.canceled(); err != nil {
			return 0, err
		}
		n := int64(len(buf))
		if pos+n > end {
			n = end - pos
		}
		m, err := f.ReadAt(buf[:n], pos)
		if m > 0 {
			rows += int64(bytes.Count(buf[:m], []byte{'\n'}))
			lastByte = buf[m-1]
			pos += int64(m)
			if c != nil {
				c.AddRawBytesRead(int64(m))
			}
		}
		if err == io.EOF {
			if pos < end {
				// The size captured at Open promised bytes up to end;
				// the file got shorter underneath us. Counting the
				// prefix as the whole file would silently drop rows.
				return 0, errs.New(errs.ErrFileShrunk, "scan count", f.Name())
			}
			break
		}
		if err != nil {
			return 0, errs.Wrap(errs.ErrRawIO, "scan read", f.Name(), err)
		}
	}
	if lastByte != '\n' && pos > off {
		rows++
	}
	return rows, nil
}

// ScanColumns tokenizes the file and emits, for every surviving row, the
// requested columns (0-based attribute indices, which need not be sorted).
// A nil cols requests every attribute of every row; in that mode the number
// of fields per row is determined by the row itself.
//
// abandon, when non-nil, is consulted after each requested column is
// located (in file order); returning true drops the row. The handler
// receives fields ordered like cols.
func (s *Scanner) ScanColumns(cols []int, handler RowHandler, abandon AbandonFunc) error {
	return s.scan(cols, handler, nil, abandon, PortionFuncs{})
}

// ScanColumnsTail is ScanColumns with tail capture: the handler also
// receives the un-tokenized remainder of each row after the last requested
// column. Abandoned rows do not reach the handler.
func (s *Scanner) ScanColumnsTail(cols []int, handler RowTailHandler, abandon AbandonFunc) error {
	return s.scan(cols, nil, handler, abandon, PortionFuncs{})
}

// ScanColumnsPortioned is ScanColumns with per-portion scheduling hooks:
// Skip prunes whole portions before a byte of them is read (synopsis zone
// maps), Begin supplies per-portion handler state, End commits it. Lines
// is ignored.
func (s *Scanner) ScanColumnsPortioned(cols []int, pf PortionFuncs) error {
	pf.Lines = nil
	return s.scan(cols, nil, nil, nil, pf)
}

// ScanLines is ScanColumnsPortioned one level down: each portion's rows
// reach the handler pf.Lines returns as whole lines, located but not
// tokenized. The pass keeps everything else of a column scan — learned
// layouts, parallel portions, per-worker buffers, cancellation, shrink
// detection, and the RawBytesRead and RowsTokenized counts; attributes
// the handlers tokenize are theirs to count.
func (s *Scanner) ScanLines(pf PortionFuncs) error {
	return s.scan(nil, nil, nil, nil, pf)
}

// info exports one portion's metadata.
func (s *Scanner) info(i int) PortionInfo {
	p := s.portions[i]
	return PortionInfo{Index: i, Off: p.off, End: p.end, FirstRow: p.firstRow, Rows: p.rows}
}

// runPortion scans one portion through the per-portion hooks, reading
// through the calling worker's buffer.
func (s *Scanner) runPortion(i int, cols []int, handler RowHandler, tailH RowTailHandler, abandon AbandonFunc, pf PortionFuncs, buf *readBuf) error {
	pi := s.info(i)
	var tok rowTokenizer
	if pf.Lines != nil {
		tok = lineTokenizer(pf.Lines(pi))
	} else {
		if pf.Begin != nil {
			handler, abandon = pf.Begin(pi)
		}
		var err error
		if tok, err = s.opts.newRowTokenizer(cols); err != nil {
			return err
		}
	}
	n, err := s.scanPortion(s.portions[i], tok, handler, tailH, abandon, buf)
	if err != nil {
		return err
	}
	if pf.End != nil {
		return pf.End(pi, n)
	}
	return nil
}

func (s *Scanner) scan(cols []int, handler RowHandler, tailH RowTailHandler, abandon AbandonFunc, pf PortionFuncs) error {
	if err := s.opts.canceled(); err != nil {
		return err
	}
	if err := s.ensurePortions(); err != nil {
		return err
	}
	s.scannedRows.Store(0)
	s.skippedRows.Store(0)
	s.skippedPortions.Store(0)
	if len(s.portions) == 0 {
		return nil
	}

	// The scheduler consults Skip up front, so only surviving portions are
	// ever assigned to workers; a pruned portion consumes no worker time
	// and no I/O. Skip is consulted only for counted portions, keeping the
	// skipped rows accounted.
	survivors := make([]int, 0, len(s.portions))
	for i := range s.portions {
		if pf.Skip != nil && s.portions[i].rows >= 0 && pf.Skip(s.info(i)) {
			s.skippedRows.Add(s.portions[i].rows)
			s.skippedPortions.Add(1)
			if c := s.opts.Counters; c != nil {
				c.AddPortionsSkipped(1)
			}
			continue
		}
		survivors = append(survivors, i)
	}
	if len(survivors) == 0 {
		return nil
	}

	w := s.opts.workers()
	if w > len(survivors) {
		w = len(survivors)
	}
	// Each worker reads every portion it takes through one buffer,
	// allocated on its first portion and kept for the pass.
	if w == 1 {
		buf := newReadBuf()
		for _, i := range survivors {
			if err := s.runPortion(i, cols, handler, tailH, abandon, pf, &buf); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
		return nil
	}

	work := make(chan int)
	errCh := make(chan error, w)
	quit := make(chan struct{})
	var quitOnce sync.Once
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := newReadBuf()
			for idx := range work {
				if err := s.runPortion(idx, cols, handler, tailH, abandon, pf, &buf); err != nil {
					errCh <- err
					quitOnce.Do(func() { close(quit) })
					return
				}
			}
		}()
	}
dispatch:
	for _, idx := range survivors {
		// A failed (or early-stopped) worker closes quit so dispatch ends
		// promptly instead of feeding portions to a shrinking pool — or
		// deadlocking when every worker has exited.
		select {
		case work <- idx:
		case <-quit:
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil && !errors.Is(err, ErrStop) {
			return err
		}
	}
	return nil
}

// tally is one portion's tokenization work. A worker counts into its own
// tally and flushes it to the shared Counters once when the portion
// returns — on success, error, ErrStop and cancellation alike — so the
// per-row loop touches no shared cache line and the totals stay exact.
type tally struct {
	rows, attrs, abandoned int64
}

func (w *tally) flush(c *metrics.Counters) {
	if c == nil {
		return
	}
	c.AddRowsTokenized(w.rows)
	c.AddAttrsTokenized(w.attrs)
	c.AddRowsAbandoned(w.abandoned)
}

// readBuf is one scan worker's read buffer, kept for a whole pass, and
// the structural index over it. stage1, nil where no kernel runs, builds
// the index of each chunk read into b; nl and dl then hold one bit per
// byte of b, two words per 64 bytes.
type readBuf struct {
	b      []byte
	nl, dl []uint64
	stage1 func(data []byte, delim byte, nl, dl []uint64)
}

// newReadBuf returns a worker's empty buffer, indexed when the CPU has
// the stage-1 kernel.
func newReadBuf() readBuf {
	if hasAVX2 {
		return readBuf{stage1: structuralIndex}
	}
	return readBuf{}
}

// index builds the structural index of data, b's first bytes, growing the
// bitmaps with b.
func (rb *readBuf) index(data []byte, delim byte) (nl, dl []uint64) {
	words := (len(data) + 63) / 64
	if cap(rb.nl) < words {
		all := (len(rb.b) + 63) / 64
		rb.nl, rb.dl = make([]uint64, all), make([]uint64, all)
	}
	nl, dl = rb.nl[:words], rb.dl[:words]
	rb.stage1(data, delim, nl, dl)
	return nl, dl
}

// portionRows carries one portion's per-row state through its chunks.
type portionRows struct {
	tok     rowTokenizer
	handler RowHandler
	tailH   RowTailHandler
	abandon AbandonFunc
	rowID   int64
	w       tally
}

// scanPortion streams one portion and tokenizes its rows with tok,
// returning how many it tokenized. It reads through the worker's buffer
// rb, allocating it on first use; a buffer outgrown by a long row is
// replaced by a larger one, which the worker keeps. A CSV walk over a
// buffer with a stage 1 indexes each chunk and walks its bits.
func (s *Scanner) scanPortion(p portion, tok rowTokenizer, handler RowHandler, tailH RowTailHandler, abandon AbandonFunc, rb *readBuf) (int64, error) {
	f, err := s.opts.fs().Open(s.path)
	if err != nil {
		return 0, errs.Wrap(errs.ErrRawIO, "scan open", s.path, err)
	}
	defer f.Close()

	c := s.opts.Counters
	r := portionRows{tok: tok, handler: handler, tailH: tailH, abandon: abandon, rowID: p.firstRow}
	defer func() {
		s.scannedRows.Add(r.w.rows)
		r.w.flush(c)
	}()
	wk, _ := tok.(*Walker)
	if rb.stage1 == nil {
		wk = nil
	}
	chunk := s.opts.chunkSize()
	if rb.b == nil {
		rb.b = make([]byte, s.readBufSize())
	}
	buf := rb.b
	carry := 0 // bytes of an incomplete row carried from the previous chunk
	pos := p.off

	for pos < p.end || carry > 0 {
		if err := s.opts.canceled(); err != nil {
			return r.w.rows, err
		}
		n := 0
		if pos < p.end {
			want := chunk
			if int64(want) > p.end-pos {
				want = int(p.end - pos)
			}
			if carry+want > len(buf) {
				nb := make([]byte, carry+want+carryRoom)
				copy(nb, buf[:carry])
				buf, rb.b = nb, nb
			}
			m, err := f.ReadAt(buf[carry:carry+want], pos)
			if m > 0 {
				pos += int64(m)
				if c != nil {
					c.AddRawBytesRead(int64(m))
				}
			}
			if err != nil && err != io.EOF {
				return r.w.rows, errs.Wrap(errs.ErrRawIO, "scan read", s.path, err)
			}
			n = carry + m
			if m == 0 && err == io.EOF {
				// EOF before the portion's end: the file shrank after
				// its size was captured. Tokenizing the prefix as if it
				// were the whole portion would return wrong results.
				return r.w.rows, errs.New(errs.ErrFileShrunk, "scan read", s.path)
			}
		} else {
			n = carry
		}
		if n == 0 {
			break
		}

		data := buf[:n]
		base := pos - int64(n) // file offset of data[0]
		more := pos < p.end
		var consumed int
		if wk != nil {
			nl, dl := rb.index(data, wk.delim)
			consumed, err = r.indexedLines(wk, data, nl, dl, base, more)
		} else {
			consumed, err = r.lines(data, base, more)
		}
		if err != nil {
			return r.w.rows, err
		}
		// Carry the incomplete tail to the front of the buffer.
		carry = len(data) - consumed
		if carry > 0 {
			copy(buf, data[consumed:])
		}
		if pos >= p.end && consumed == len(data) {
			carry = 0
		}
		if pos >= p.end && carry > 0 && consumed == 0 {
			return r.w.rows, fmt.Errorf("scan: row longer than buffer at offset %d", base)
		}
	}
	return r.w.rows, nil
}

// lines tokenizes the complete rows of data, whose first byte sits at file
// offset base, and returns how many bytes they take; more reports that
// the portion continues past data, so a last row without a newline is
// incomplete rather than final. It finds each row's end with IndexByte.
func (r *portionRows) lines(data []byte, base int64, more bool) (int, error) {
	consumed := 0
	for {
		nl := bytes.IndexByte(data[consumed:], '\n')
		var line []byte
		lineStart := consumed
		if nl < 0 {
			if more {
				break // incomplete row; wait for more data
			}
			// Final row without trailing newline.
			line = data[consumed:]
			consumed = len(data)
			if len(line) == 0 {
				break
			}
		} else {
			line = data[consumed : consumed+nl]
			consumed += nl + 1
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		r.w.rows++
		err := r.tok.row(line, base+int64(lineStart), r.rowID, r.handler, r.tailH, r.abandon, &r.w)
		r.rowID++
		if err != nil {
			return consumed, err
		}
		if consumed >= len(data) {
			break
		}
	}
	return consumed, nil
}

// rowTokenizer locates requested attributes within one line. The CSV
// tokenizer and the NDJSON tokenizer both satisfy it; everything above a
// single row — chunked reads, portion scheduling, row ids, carry buffers —
// is format-agnostic and shared.
type rowTokenizer interface {
	row(line []byte, lineOff, rowID int64, handler RowHandler, tailH RowTailHandler, abandon AbandonFunc, w *tally) error
}

// newRowTokenizer builds the per-row attribute locator for the configured
// format.
func (o Options) newRowTokenizer(cols []int) (rowTokenizer, error) {
	switch o.Format {
	case FormatNDJSON:
		return newJSONTokenizer(o.FieldNames, cols)
	default:
		if cols == nil {
			return &allTokenizer{delim: o.delim()}, nil
		}
		return NewWalker(o.delim(), cols), nil
	}
}

// lineTokenizer hands each row to a LineHandler whole (ScanLines).
type lineTokenizer LineHandler

func (h lineTokenizer) row(line []byte, lineOff, rowID int64, _ RowHandler, _ RowTailHandler, _ AbandonFunc, _ *tally) error {
	return h(rowID, lineOff, line)
}

// Walker locates a fixed set of attributes in delimiter-separated lines.
// It is the CSV scan's per-row locator, exported for loaders that start
// tokenizing at a recorded position instead of a row start. Reaching
// attribute k means tokenizing the k before it — the cost the paper's
// §4.1.2 complains about — so the walk skips delimiters a word at a time
// (skipDelims) and stops at the last requested attribute. A Walker reuses
// its field slice, so it serves one goroutine.
type Walker struct {
	delim  byte
	sorted []int   // unique requested attributes, ascending
	dup    [][]int // dup[i]: every index into cols that asks for sorted[i]
	steps  []walkStep
	fields []FieldRef
}

// walkStep is the bit walk's plan for sorted[i]: the delimiters between
// the end of the attribute before it (or the row's start) and its start,
// and the one index into cols it fills, or -1 when dup[i] holds several.
type walkStep struct {
	skip, ci int
}

// NewWalker returns a walker for cols: 0-based attribute indices in any
// order, duplicates allowed. Walk returns the fields ordered like cols.
func NewWalker(delim byte, cols []int) *Walker {
	t := &Walker{delim: delim, fields: make([]FieldRef, len(cols))}
	// Build the ascending visit order once; duplicate column requests are
	// supported (each position in cols gets the field).
	type pair struct{ col, idx int }
	pairs := make([]pair, len(cols))
	for i, col := range cols {
		pairs[i] = pair{col, i}
	}
	for i := 1; i < len(pairs); i++ { // insertion sort; cols is tiny
		for j := i; j > 0 && pairs[j].col < pairs[j-1].col; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	for i := 0; i < len(pairs); {
		j := i
		var idxs []int
		for j < len(pairs) && pairs[j].col == pairs[i].col {
			idxs = append(idxs, pairs[j].idx)
			j++
		}
		skip, ci := pairs[i].col, -1
		if len(t.sorted) > 0 {
			skip -= t.sorted[len(t.sorted)-1] + 1
		}
		if len(idxs) == 1 {
			ci = idxs[0]
		}
		t.sorted = append(t.sorted, pairs[i].col)
		t.dup = append(t.dup, idxs)
		t.steps = append(t.steps, walkStep{skip: skip, ci: ci})
		i = j
	}
	return t
}

// Walk locates the walker's attributes in line, whose first byte sits at
// file offset lineOff; rowID only labels errors. It returns the fields
// ordered like cols and the number of attributes tokenized to reach them.
// The fields alias line and the walker until the next Walk.
func (t *Walker) Walk(line []byte, lineOff, rowID int64) ([]FieldRef, int64, error) {
	attrs, _, _, err := t.walk(line, lineOff, rowID, nil)
	return t.fields, attrs, err
}

// walk is Walk with early abandonment: abandon, when non-nil, sees each
// located attribute in file order, and dropped reports that it gave up on
// the row. end is the index just past the last requested attribute.
func (t *Walker) walk(line []byte, lineOff, rowID int64, abandon AbandonFunc) (attrs int64, end int, dropped bool, err error) {
	at, off := 0, 0 // attribute `at` starts at line[off]
	for si, want := range t.sorted {
		if k := want - at; k > 0 {
			next, n := skipDelims(line, off, k, t.delim)
			attrs += int64(n)
			if n < k {
				return attrs, 0, false, fmt.Errorf("scan: row %d has %d attributes, need index %d", rowID, at+n+1, want)
			}
			at, off = want, next
		}
		end = bytes.IndexByte(line[off:], t.delim)
		if end < 0 {
			end = len(line)
		} else {
			end += off
		}
		attrs++
		fr := FieldRef{Bytes: line[off:end], Offset: lineOff + int64(off)}
		for _, ci := range t.dup[si] {
			t.fields[ci] = fr
			if abandon != nil && abandon(ci, fr) {
				return attrs, end, true, nil
			}
		}
		if si+1 < len(t.sorted) {
			if end == len(line) {
				return attrs, 0, false, fmt.Errorf("scan: row %d has %d attributes, need index %d", rowID, at+1, t.sorted[si+1])
			}
			at, off = at+1, end+1
		}
	}
	return attrs, end, false, nil
}

// row tokenizes one line for a scan. lineOff is the absolute file offset
// of line[0].
func (t *Walker) row(line []byte, lineOff, rowID int64, handler RowHandler, tailH RowTailHandler, abandon AbandonFunc, w *tally) error {
	attrs, end, dropped, err := t.walk(line, lineOff, rowID, abandon)
	if err != nil {
		return err
	}
	return t.emit(line, lineOff, rowID, attrs, end, dropped, handler, tailH, w)
}

// emit counts a walked row and hands it on unless it was dropped; end is
// the index in line just past its last requested attribute.
func (t *Walker) emit(line []byte, lineOff, rowID, attrs int64, end int, dropped bool, handler RowHandler, tailH RowTailHandler, w *tally) error {
	w.attrs += attrs
	if dropped {
		w.abandoned++
		return nil
	}
	if tailH != nil {
		tail := FieldRef{Offset: lineOff + int64(len(line))}
		if end < len(line) { // line[end] is the delimiter
			tail = FieldRef{Bytes: line[end+1:], Offset: lineOff + int64(end) + 1}
		}
		return tailH(rowID, t.fields, tail)
	}
	return handler(rowID, t.fields)
}

// skipDelims returns the index just past the k-th delimiter d at or after
// line[off], and k; when the line holds fewer, it returns len(line) and
// how many it found. It tests eight bytes per step: XOR with d in every
// byte zeroes exactly the bytes equal to d; adding 0x7f to each byte's low
// seven bits (no carry crosses a byte) and OR-ing the byte back sets the
// high bit of every nonzero byte, so the complement's high bits mark
// exactly the delimiters, with no false positive on bytes >= 0x80.
// OnesCount64 skips a word's delimiters at once; TrailingZeros64 lands on
// the k-th.
func skipDelims(line []byte, off, k int, d byte) (int, int) {
	if k <= 0 {
		return off, 0
	}
	const lo7 = 0x7f7f7f7f7f7f7f7f
	pat := 0x0101010101010101 * uint64(d)
	n := 0
	for ; off+8 <= len(line); off += 8 {
		x := binary.LittleEndian.Uint64(line[off:]) ^ pat
		m := ^((x&lo7 + lo7) | x) &^ lo7
		if c := bits.OnesCount64(m); n+c < k {
			n += c
			continue
		}
		for ; n+1 < k; n++ {
			m &= m - 1 // drop a delimiter before the k-th
		}
		return off + bits.TrailingZeros64(m)>>3 + 1, k
	}
	for ; off < len(line); off++ {
		if line[off] == d {
			if n++; n == k {
				return off + 1, k
			}
		}
	}
	return len(line), n
}

// allTokenizer locates every attribute of a row: ScanColumns with nil
// cols, where the row itself decides how many fields it has.
type allTokenizer struct {
	delim  byte
	fields []FieldRef
}

func (t *allTokenizer) row(line []byte, lineOff, rowID int64, handler RowHandler, tailH RowTailHandler, _ AbandonFunc, w *tally) error {
	t.fields = t.fields[:0]
	off := 0
	for {
		i := bytes.IndexByte(line[off:], t.delim)
		if i < 0 {
			t.fields = append(t.fields, FieldRef{Bytes: line[off:], Offset: lineOff + int64(off)})
			break
		}
		t.fields = append(t.fields, FieldRef{Bytes: line[off : off+i], Offset: lineOff + int64(off)})
		off += i + 1
	}
	w.attrs += int64(len(t.fields))
	if tailH != nil {
		return tailH(rowID, t.fields, FieldRef{Offset: lineOff + int64(len(line))})
	}
	return handler(rowID, t.fields)
}
