// Package splitfile implements "file cracking" (paper §4): as a side
// effect of a load that tokenizes attributes 0..k of a raw file, the
// tokenized attributes are written out as one single-column file each, and
// the un-tokenized remainder of every row is written to one residual file.
// Future loads of attribute j ≤ k read only that attribute's sidecar file —
// no other bytes, no tokenization of preceding attributes — and loads of
// j > k read only the (narrower) residual file. Residual files can be
// split again, recursively, so the raw file's loading cost keeps shrinking
// as the workload touches more of it.
//
// The engine does not serve through split files: loader's
// SplitColumnLoadContext, given a Registry, is the only reader and writer,
// and Figure 4 and the split-file ablation are its only callers.
package splitfile

import (
	"bufio"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"nodb/internal/errs"
	"nodb/internal/metrics"
	"nodb/internal/vfs"
)

// Source describes where the values of one attribute can be read from.
type Source struct {
	// Path of the file holding the attribute.
	Path string
	// LocalCol is the attribute's index within that file (0 for a
	// single-column sidecar).
	LocalCol int
	// Cols lists the original attribute indices stored in the file, in
	// file order. len(Cols) == 1 for sidecars.
	Cols []int
	// Raw reports whether Path is the original raw file.
	Raw bool
}

// Registry tracks the split files that exist for one raw file. Split files
// are derived state: they are dropped wholesale when the raw file changes.
// Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	dir      string
	base     string // name prefix for split files
	rawPath  string
	ncols    int
	seq      int            // suffix for unique file names
	colFiles map[int]string // attribute → sidecar path
	rests    []restFile     // residual files, most recent last
	counters *metrics.Counters

	// FS is the filesystem split files are written and read through;
	// nil means the real disk. Set before the registry is shared.
	FS vfs.FS
}

func (r *Registry) fs() vfs.FS { return vfs.Default(r.FS) }

// restFile is a residual CSV holding a contiguous suffix of the original
// attributes.
type restFile struct {
	path string
	cols []int // original attribute indices, in file order
}

// NewRegistry creates a registry for rawPath whose split files live in dir
// (created on demand). ncols is the raw file's attribute count.
func NewRegistry(dir, rawPath string, ncols int, counters *metrics.Counters) *Registry {
	return &Registry{
		dir:      dir,
		base:     sanitize(filepath.Base(rawPath)),
		rawPath:  rawPath,
		ncols:    ncols,
		colFiles: make(map[int]string),
		counters: counters,
	}
}

func sanitize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Lookup returns the best source for attribute col: its sidecar if one
// exists, else the narrowest residual file containing it, else the raw
// file.
func (r *Registry) Lookup(col int) Source {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.colFiles[col]; ok {
		return Source{Path: p, LocalCol: 0, Cols: []int{col}}
	}
	best := -1
	for i, rf := range r.rests {
		for _, c := range rf.cols {
			if c == col {
				if best < 0 || len(rf.cols) < len(r.rests[best].cols) {
					best = i
				}
				break
			}
		}
	}
	if best >= 0 {
		rf := r.rests[best]
		local := 0
		for i, c := range rf.cols {
			if c == col {
				local = i
				break
			}
		}
		return Source{Path: rf.path, LocalCol: local, Cols: append([]int(nil), rf.cols...)}
	}
	cols := make([]int, r.ncols)
	for i := range cols {
		cols[i] = i
	}
	return Source{Path: r.rawPath, LocalCol: col, Cols: cols, Raw: true}
}

// HasSidecar reports whether attribute col already has a single-column
// file.
func (r *Registry) HasSidecar(col int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.colFiles[col]
	return ok
}

// SplitPlan reports what a splitting load of `source` should produce when
// it tokenizes localCols (indices local to the source file): the original
// attribute ids to emit sidecars for, and the original attribute ids left
// in the new residual file.
type SplitPlan struct {
	// Sidecars maps local column index → original attribute id for every
	// column the load will tokenize and should persist.
	Sidecars map[int]int
	// RestCols are the original attribute ids of the columns after the
	// last tokenized one, in file order; empty when the split consumes
	// the whole width.
	RestCols []int
}

// PlanSplit computes the split plan for tokenizing localCols of src. The
// tokenized prefix is 0..max(localCols): the tokenizer must pass over
// every column before the target anyway, so all of them become sidecars
// (paper §4.2: "the already seen columns which do not qualify for the
// current query are not ignored as before").
func PlanSplit(src Source, localCols []int) SplitPlan {
	maxLocal := 0
	for _, c := range localCols {
		if c > maxLocal {
			maxLocal = c
		}
	}
	p := SplitPlan{Sidecars: make(map[int]int, maxLocal+1)}
	for local := 0; local <= maxLocal; local++ {
		p.Sidecars[local] = src.Cols[local]
	}
	for local := maxLocal + 1; local < len(src.Cols); local++ {
		p.RestCols = append(p.RestCols, src.Cols[local])
	}
	return p
}

// Writer persists one splitting load: sidecar files for tokenized columns
// plus an optional residual file. Create it with NewWriter, feed rows with
// WriteRow, then Close. On success the files are registered; on failure
// they are removed and the registry is untouched.
type Writer struct {
	reg      *Registry
	plan     SplitPlan
	locals   []int // sorted local column indices with sidecars
	files    []vfs.File
	bufs     []*bufio.Writer
	restFile vfs.File
	restBuf  *bufio.Writer
	paths    []string
	written  int64
	failed   bool
}

// NewWriter opens output files for the given plan.
func (r *Registry) NewWriter(plan SplitPlan) (*Writer, error) {
	if err := r.fs().MkdirAll(r.dir, 0o755); err != nil {
		return nil, errs.ClassifyWrite("splitfile mkdir", r.dir, fmt.Errorf("splitfile: %w", err))
	}
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()

	w := &Writer{reg: r, plan: plan}
	for local := range plan.Sidecars {
		w.locals = append(w.locals, local)
	}
	sort.Ints(w.locals)

	cleanup := func() {
		for _, f := range w.files {
			f.Close()
		}
		if w.restFile != nil {
			w.restFile.Close()
		}
		for _, p := range w.paths {
			r.fs().Remove(p)
		}
	}
	for _, local := range w.locals {
		orig := plan.Sidecars[local]
		path := filepath.Join(r.dir, fmt.Sprintf("%s.c%d.%d.col", r.base, orig, seq))
		f, err := r.fs().Create(path)
		if err != nil {
			cleanup()
			return nil, errs.ClassifyWrite("splitfile create", path, fmt.Errorf("splitfile: %w", err))
		}
		w.files = append(w.files, f)
		w.bufs = append(w.bufs, bufio.NewWriterSize(f, 256<<10))
		w.paths = append(w.paths, path)
	}
	if len(plan.RestCols) > 0 {
		path := filepath.Join(r.dir, fmt.Sprintf("%s.rest%d.%d.csv", r.base, plan.RestCols[0], seq))
		f, err := r.fs().Create(path)
		if err != nil {
			cleanup()
			return nil, errs.ClassifyWrite("splitfile create", path, fmt.Errorf("splitfile: %w", err))
		}
		w.restFile = f
		w.restBuf = bufio.NewWriterSize(f, 256<<10)
		w.paths = append(w.paths, path)
	}
	return w, nil
}

// WriteRow appends one row: fields[i] is the raw text of local column
// w.locals[i] (ascending local order), and tail is the un-tokenized
// remainder of the row (may be empty). The caller must feed every row of
// the source file, in any order consistent per file — rows are written in
// arrival order, so feed them in row order.
func (w *Writer) WriteRow(fields [][]byte, tail []byte) error {
	if len(fields) != len(w.bufs) {
		return fmt.Errorf("splitfile: got %d fields, want %d", len(fields), len(w.bufs))
	}
	for i, b := range fields {
		buf := w.bufs[i]
		if _, err := buf.Write(b); err != nil {
			w.failed = true
			return err
		}
		if err := buf.WriteByte('\n'); err != nil {
			w.failed = true
			return err
		}
		w.written += int64(len(b)) + 1
	}
	if w.restBuf != nil {
		if _, err := w.restBuf.Write(tail); err != nil {
			w.failed = true
			return err
		}
		if err := w.restBuf.WriteByte('\n'); err != nil {
			w.failed = true
			return err
		}
		w.written += int64(len(tail)) + 1
	}
	return nil
}

// Abort closes and removes the partial outputs without registering
// anything. Callers whose row feed stopped early — a scan error, a
// cancelled query — must Abort rather than Close: the files hold a
// prefix of the table and registering them would serve truncated
// columns to every later query.
func (w *Writer) Abort() {
	w.failed = true
	_ = w.Close()
}

// Close flushes, registers the new files, and retires residual files that
// are now fully superseded. On any earlier write failure it removes the
// partial outputs instead.
func (w *Writer) Close() error {
	var firstErr error
	for _, b := range w.bufs {
		if err := b.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if w.restBuf != nil {
		if err := w.restBuf.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, f := range w.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if w.restFile != nil {
		if err := w.restFile.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if w.failed || firstErr != nil {
		for _, p := range w.paths {
			w.reg.fs().Remove(p)
		}
		if firstErr != nil {
			return errs.ClassifyWrite("splitfile write", w.reg.rawPath, fmt.Errorf("splitfile: %w", firstErr))
		}
		return fmt.Errorf("splitfile: writer failed")
	}

	r := w.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, local := range w.locals {
		orig := w.plan.Sidecars[local]
		if _, exists := r.colFiles[orig]; !exists {
			r.colFiles[orig] = w.paths[i]
		} else {
			r.fs().Remove(w.paths[i]) // a concurrent load beat us; keep theirs
		}
	}
	if len(w.plan.RestCols) > 0 {
		path := w.paths[len(w.paths)-1]
		r.rests = append(r.rests, restFile{path: path, cols: append([]int(nil), w.plan.RestCols...)})
	}
	if r.counters != nil {
		r.counters.AddSplitBytesWritten(w.written)
	}
	return nil
}

// Drop removes every registered split file and resets the registry (a
// split source turned out misaligned with the raw file).
func (r *Registry) Drop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.colFiles {
		r.fs().Remove(p)
	}
	for _, rf := range r.rests {
		r.fs().Remove(rf.path)
	}
	r.colFiles = make(map[int]string)
	r.rests = nil
}
