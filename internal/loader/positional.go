package loader

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"nodb/internal/catalog"
	"nodb/internal/errs"
	"nodb/internal/posmap"
	"nodb/internal/scan"
	"nodb/internal/storage"
	"nodb/internal/vfs"
)

// tryPositionalColumnLoad loads the missing columns by jumping straight to
// a recorded anchor attribute in every row instead of tokenizing from the
// row start. It applies when the positional map covers some attribute
// j <= min(missing) for every row of the table; tokenization then costs
// (max(missing) - j + 1) attributes per row instead of (max(missing) + 1).
// Returns true when it handled the load.
//
// The anchor walk is CSV-specific (it delimiter-tokenizes rightward from
// the anchor); NDJSON tables dispatch to the direct-offset variant, whose
// recorded positions point at the value tokens themselves.
func (l *Loader) tryPositionalColumnLoad(ctx context.Context, t *catalog.Table, missing []int) bool {
	if t.Schema().Format == scan.FormatNDJSON {
		return l.tryPositionalColumnLoadJSON(ctx, t, missing)
	}
	pm := t.PosMap
	rows := t.NumRows()
	if pm == nil || rows <= 0 {
		return false
	}
	minCol := missing[0] // missing is sorted
	anchor := -1
	for _, c := range pm.CoveredCols() {
		if c <= minCol && c > anchor && pm.Covers(c, 0, rows) {
			anchor = c
		}
	}
	if anchor < 0 {
		return false
	}
	if anchor == 0 {
		// Tokenizing from the row start is what the plain scan does
		// anyway; no benefit.
		return false
	}
	_, offs := pm.Pairs(anchor)
	if int64(len(offs)) != rows {
		return false
	}

	sch := t.Schema()
	dense := make([]*storage.DenseColumn, len(missing))
	sinks := make([]fieldSink, len(missing))
	relCols := make([]int, len(missing))
	var found []*posmap.Run // positions learned for the missing columns, by row
	if l.RecordPositions {
		found = make([]*posmap.Run, len(missing))
	}
	for i, c := range missing {
		dense[i] = storage.NewDenseSized(sch.Columns[c].Type, int(rows))
		sinks[i] = newSink(dense[i], i, sch.Format)
		relCols[i] = c - anchor
		if found != nil {
			found[i] = posmap.NewRun(rows, t.Signature().Size)
		}
	}

	var parsed int64
	err := l.positionalScan(ctx, t.Path(), t.Schema().Delimiter, offs, relCols, func(rowID int64, fields []scan.FieldRef) error {
		for i, f := range fields {
			if err := sinks[i](f.Bytes, int(rowID), nil); err != nil {
				return fmt.Errorf("loader: row %d col %d: %w", rowID, missing[i], err)
			}
			if found != nil {
				found[i].Set(rowID, f.Offset)
			}
		}
		parsed += int64(len(fields))
		return nil
	})
	if l.Counters != nil {
		l.Counters.AddValuesParsed(parsed)
	}
	if err != nil {
		return false // fall back to the plain scan
	}
	if l.Counters != nil {
		// Every row's tokenization started at the anchor position the map
		// served.
		l.Counters.AddPosMapHit(rows)
	}
	l.install(t, missing, dense, found)
	return true
}

// eachLineAt streams the file sequentially, handing fn the tail of each
// row starting at the given per-row offset (ascending) and running to the
// row's newline (CR stripped). It is the shared chassis of the positional
// loads: CSV tokenizes rightward from an anchor attribute, NDJSON
// delimits one value token in place.
func (l *Loader) eachLineAt(ctx context.Context, path string, offs []int64, fn func(rowID int64, off int64, line []byte) error) error {
	f, err := vfs.Default(l.FS).Open(path)
	if err != nil {
		return errs.Wrap(errs.ErrRawIO, "loader open", path, err)
	}
	defer f.Close()

	chunk := l.ChunkSize
	if chunk <= 0 {
		chunk = scan.DefaultChunkSize
	}
	buf := make([]byte, 0, chunk)
	var bufStart int64

	// refill loads the buffer so it covers [off, off+chunk). It doubles as
	// the cancellation checkpoint: one check per buffer refill costs
	// nothing next to the read itself.
	refill := func(off int64, minLen int) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("loader: %w", err)
			}
		}
		want := chunk
		if minLen > want {
			want = minLen
		}
		if cap(buf) < want {
			buf = make([]byte, 0, want)
		}
		buf = buf[:want]
		n, err := f.ReadAt(buf, off)
		buf = buf[:n]
		bufStart = off
		if l.Counters != nil {
			l.Counters.AddRawBytesRead(int64(n))
		}
		if err != nil && err != io.EOF {
			return errs.Wrap(errs.ErrRawIO, "loader read", path, err)
		}
		return nil
	}

	for rowID, off := range offs {
		// Ensure the line starting at off is in the buffer.
		var line []byte
		for attempt, want := 0, chunk; ; attempt, want = attempt+1, want*2 {
			if off < bufStart || off >= bufStart+int64(len(buf)) {
				if err := refill(off, want); err != nil {
					return err
				}
			}
			rel := int(off - bufStart)
			if nl := bytes.IndexByte(buf[rel:], '\n'); nl >= 0 {
				line = buf[rel : rel+nl]
				break
			}
			// Line extends past the buffer: refill bigger from off,
			// unless we already hold the file tail.
			if int64(len(buf)) < int64(want) && bufStart+int64(len(buf)) >= off { // EOF reached
				line = buf[rel:]
				break
			}
			if err := refill(off, want*2); err != nil {
				return err
			}
			rel = int(off - bufStart)
			if nl := bytes.IndexByte(buf[rel:], '\n'); nl >= 0 {
				line = buf[rel : rel+nl]
				break
			}
			if attempt > 30 {
				return fmt.Errorf("loader: row at offset %d exceeds buffer growth limit", off)
			}
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if err := fn(int64(rowID), off, line); err != nil {
			return err
		}
	}
	return nil
}

// positionalScan streams the file sequentially but tokenizes each row from
// the given per-row anchor offset (ascending), with the scan's own field
// walker. relCols are attribute indices relative to the anchor attribute.
func (l *Loader) positionalScan(ctx context.Context, path string, delim byte, offs []int64, relCols []int, handler scan.RowHandler) error {
	walker := scan.NewWalker(delim, relCols)
	var rows, attrs int64 // tokenized rows' work, flushed once on every return path
	if c := l.Counters; c != nil {
		defer func() {
			c.AddRowsTokenized(rows)
			c.AddAttrsTokenized(attrs)
		}()
	}
	return l.eachLineAt(ctx, path, offs, func(rowID, off int64, line []byte) error {
		fields, n, err := walker.Walk(line, off, rowID)
		if err != nil {
			return err
		}
		rows++
		attrs += n
		return handler(rowID, fields)
	})
}

// tryPositionalColumnLoadJSON loads missing NDJSON columns straight from
// recorded value-token offsets. NDJSON positions are per-field, not
// per-anchor: the map stores where each queried field's value token
// starts, learned on first touch, so a covered column loads by jumping to
// every offset and delimiting the token in place — no key scanning, no
// neighboring tokenization at all. Applies only when the map covers every
// missing column for every row; otherwise the plain scan runs.
func (l *Loader) tryPositionalColumnLoadJSON(ctx context.Context, t *catalog.Table, missing []int) bool {
	pm := t.PosMap
	rows := t.NumRows()
	if pm == nil || rows <= 0 {
		return false
	}
	for _, c := range missing {
		if !pm.Covers(c, 0, rows) {
			return false
		}
	}
	sch := t.Schema()
	dense := make([]*storage.DenseColumn, len(missing))
	for i, c := range missing {
		_, offs := pm.Pairs(c)
		if int64(len(offs)) != rows {
			return false
		}
		col := storage.NewDenseSized(sch.Columns[c].Type, int(rows))
		sink := newSink(col, 0, sch.Format)
		var done int64 // rows tokenized and parsed, one value each
		err := l.eachLineAt(ctx, t.Path(), offs, func(rowID, off int64, line []byte) error {
			end, err := scan.ScanJSONValue(line, 0)
			if err != nil {
				return fmt.Errorf("loader: row %d col %d: %w", rowID, c, err)
			}
			if err := sink(line[:end], int(rowID), nil); err != nil {
				return fmt.Errorf("loader: row %d col %d: %w", rowID, c, err)
			}
			done++
			return nil
		})
		if l.Counters != nil {
			l.Counters.AddRowsTokenized(done)
			l.Counters.AddAttrsTokenized(done)
			l.Counters.AddValuesParsed(done)
		}
		if err != nil {
			return false // fall back to the plain scan
		}
		dense[i] = col
	}
	if l.Counters != nil {
		// Every value was read at a position the map served.
		l.Counters.AddPosMapHit(rows * int64(len(missing)))
	}
	l.install(t, missing, dense, nil)
	return true
}
