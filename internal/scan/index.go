package scan

import "math/bits"

// indexedLines is lines over a chunk's structural index: nl and dl mark
// the newlines and wk's delimiters of data, one bit per byte. Row ends
// come off nl with TrailingZeros64, and wk walks each row over dl.
func (r *portionRows) indexedLines(wk *Walker, data []byte, nl, dl []uint64, base int64, more bool) (int, error) {
	consumed := 0
	for wi, m := range nl {
		for ; m != 0; m &= m - 1 {
			stop := wi<<6 + bits.TrailingZeros64(m)
			start := consumed
			consumed = stop + 1
			if err := r.bitRow(wk, data, dl, start, stop, base); err != nil {
				return consumed, err
			}
		}
	}
	if more || consumed == len(data) {
		return consumed, nil
	}
	// Final row without trailing newline.
	return len(data), r.bitRow(wk, data, dl, consumed, len(data), base)
}

// bitRow tokenizes the row data[start:stop], without its newline.
func (r *portionRows) bitRow(wk *Walker, data []byte, dl []uint64, start, stop int, base int64) error {
	if stop > start && data[stop-1] == '\r' {
		stop--
	}
	r.w.rows++
	rowID := r.rowID
	r.rowID++
	lineOff := base + int64(start)
	attrs, end, dropped, ok := wk.walkBits(data, dl, start, stop, lineOff, r.abandon)
	if !ok {
		// The row ends before its last requested attribute: the byte
		// walk reports it, with the same error text as on any CPU. The
		// fields before the gap may reach abandon a second time, on a
		// row that fails the scan.
		return wk.row(data[start:stop], lineOff, rowID, r.handler, r.tailH, r.abandon, &r.w)
	}
	return wk.emit(data[start:stop], lineOff, rowID, attrs, end-start, dropped, r.handler, r.tailH, &r.w)
}

// walkBits is walk over the delimiter bitmap dl for the row
// data[start:stop], whose first byte sits at file offset lineOff. end is
// the index in data just past the last requested attribute it located.
// ok is false, with nothing else set, when the row ends before that
// attribute; abandon has then seen the attributes before the gap.
//
// One cursor runs over dl for the whole row: m holds the delimiters of
// word wi not yet passed. Skipping k delimiters drops whole words with
// OnesCount64 and then the k-1 low bits of the word that holds the k-th;
// an attribute ends at the next bit. A bit at or past stop belongs to a
// later row.
func (t *Walker) walkBits(data []byte, dl []uint64, start, stop int, lineOff int64, abandon AbandonFunc) (attrs int64, end int, dropped, ok bool) {
	last := len(t.steps) - 1
	if last < 0 {
		return 0, start, false, true
	}
	wi := start >> 6
	m := dl[wi] &^ (1<<(start&63) - 1)
	off := start // the next attribute starts at data[off]
	for si, st := range t.steps {
		if k := st.skip; k > 0 {
			for c := bits.OnesCount64(m); c < k; c = bits.OnesCount64(m) {
				k -= c
				if wi++; wi<<6 >= stop {
					return 0, 0, false, false
				}
				m = dl[wi]
			}
			for ; k > 1; k-- {
				m &= m - 1
			}
			if off = wi<<6 + bits.TrailingZeros64(m) + 1; off > stop {
				return 0, 0, false, false
			}
			m &= m - 1
		}
		for m == 0 && (wi+1)<<6 < stop {
			wi++
			m = dl[wi]
		}
		if end = wi<<6 + bits.TrailingZeros64(m); m == 0 || end > stop {
			end = stop
		}
		m &= m - 1
		fr := FieldRef{Bytes: data[off:end], Offset: lineOff + int64(off-start)}
		if st.ci >= 0 {
			t.fields[st.ci] = fr
			if abandon != nil && abandon(st.ci, fr) {
				return int64(t.sorted[si]) + 1, end, true, true
			}
		} else {
			for _, ci := range t.dup[si] {
				t.fields[ci] = fr
				if abandon != nil && abandon(ci, fr) {
					return int64(t.sorted[si]) + 1, end, true, true
				}
			}
		}
		if si < last {
			if end == stop {
				return 0, 0, false, false
			}
			off = end + 1
		}
	}
	return int64(t.sorted[last]) + 1, end, false, true
}
