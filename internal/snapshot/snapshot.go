// Package snapshot implements the disk tier of the adaptive store: a
// versioned, checksummed on-disk cache of the auxiliary structures the
// engine learns from queries — positional maps, cached (dense) columns,
// retained partial loads with their coverage regions, and scan
// synopses.
//
// The paper treats all of this state as "auxiliary data we are not afraid
// to lose", and the engine honors that: everything here is disposable and
// rebuilt from the raw file on demand. But rebuilding is not free — a
// positional map accumulates over many query passes, and a restarted
// server re-pays the whole adaptive learning curve under live traffic.
// Snapshots make the learning curve durable: a table's structures are
// serialized on close (and periodically by the server), and lazily
// restored on the first query after a restart, so a warm restart starts
// where the previous process left off. The same machinery backs
// spill-instead-of-discard eviction: when the memory governor reclaims an
// expensive structure, it is written here first and re-admitted on demand,
// turning the rebuild cost into a deserialize.
//
// # File format
//
// A snapshot file is a magic header followed by self-describing sections:
//
//	magic "NODBSNAP" | version u16
//	section: kind u8 | col i32 | payload-len u64 | payload | crc32 u32
//
// The first section is always the header: the raw file's signature (size,
// mtime, prefix CRC — the catalog's invalidation key) plus the discovered
// row count. A snapshot whose signature does not match the current raw
// file is stale and self-invalidates; nothing from it is used. Every
// section carries its own CRC32 over the payload, so a torn or corrupted
// write degrades to a cold start for the affected structures — never a
// wrong answer. Sections after the header can be read lazily and in any
// order: the Reader indexes section framing without touching payloads,
// and a query that only needs one cached column decodes only that
// section's bytes.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"nodb/internal/errs"
	"nodb/internal/schema"
	"nodb/internal/vfs"
)

// Magic and version identify the file format. Bump version on any layout
// change: old files then fail the header check and count as stale.
const (
	magic   = "NODBSNAP"
	version = 2 // v2: Sig gained the tail CRC (append-aware invalidation)
)

// Section kinds.
const (
	kindHeader   = 1 // raw-file signature + row count
	kindPosMap   = 2 // positional map, one section per attribute
	kindDense    = 3 // fully loaded column, one section per attribute
	kindSparse   = 4 // retained partial-load column, one section per attribute
	kindRegions  = 5 // covered regions of the adaptive store
	kindSynopsis = 7 // per-portion scan synopsis (layout + zone maps)
	// Kind 6 is reserved: older builds wrote a split-file manifest there, which readers skip.
)

// ErrStale reports a snapshot written for a different version of the raw
// file (the signature in its header does not match). Stale snapshots are
// discarded wholesale.
var ErrStale = errors.New("snapshot: stale (raw file changed)")

// ErrCorrupt reports a snapshot section whose framing or checksum is
// invalid (torn write, truncation, bit rot). Corruption never surfaces to
// the query path: the affected structure is simply not restored. It
// matches errs.ErrSnapshotCorrupt, so callers outside this package can
// classify through the engine-wide taxonomy.
var ErrCorrupt = fmt.Errorf("snapshot: %w", errs.ErrSnapshotCorrupt)

// Sig is the raw file's identity: any edit to the file changes it, which
// invalidates every snapshot keyed by the old value. It mirrors the
// catalog's file signature.
type Sig struct {
	Size    int64
	ModTime int64
	Prefix  uint32
	// Tail is the CRC of the file's last bytes (up to 4 KiB). Together
	// with Prefix it lets a reopened snapshot distinguish "file grew by
	// appending" (prefix still verifies against the stored size) from
	// "file rewritten" — even when the rewrite kept the size.
	Tail uint32
}

// PosMapCol is the serialized positional map of one attribute: parallel
// (row, byte-offset) slices sorted by row.
type PosMapCol struct {
	Col  int
	Rows []int64
	Offs []int64
}

// DenseCol is a serialized fully-loaded column.
type DenseCol struct {
	Col    int
	Typ    schema.Type
	Ints   []int64
	Floats []float64
	Strs   []string
}

// SparseCol is a serialized partially-loaded column: the present row ids
// plus their values.
type SparseCol struct {
	Col    int
	Typ    schema.Type
	Rows   []int64
	Ints   []int64
	Floats []float64
	Strs   []string
}

// Region is a serialized covered region: the columns whose qualifying
// values were materialized, and the per-column value ranges the load
// qualified on (parallel RangeCols/Los/His slices).
type Region struct {
	Cols      []int
	RangeCols []int
	Los       []int64
	His       []int64
}

// SynCol is one column's serialized zone-map bounds within one portion.
type SynCol struct {
	Col                int
	Typ                schema.Type
	MinI, MaxI         int64
	MinF, MaxF         float64
	MinS, MaxS         string
	MinExact, MaxExact bool
}

// SynPortion is one portion of the serialized scan synopsis: its byte
// range, row ids, and the fully-covered column bounds.
type SynPortion struct {
	Off, End, FirstRow, Rows int64
	Cols                     []SynCol
}

// Table is the full serializable state of one table's auxiliary
// structures. Any field may be empty; a snapshot holds whatever the
// engine had learned.
type Table struct {
	Rows     int64
	PosMap   []PosMapCol
	Dense    []DenseCol
	Sparse   []SparseCol
	Regions  []Region
	Synopsis []SynPortion
}

// sectionWriter buffers one section's payload so the frame (length + CRC)
// can be written around it.
type sectionWriter struct {
	buf []byte
}

func (w *sectionWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *sectionWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *sectionWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *sectionWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *sectionWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}

func (w *sectionWriter) i64s(vs []int64) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.i64(v)
	}
}

func (w *sectionWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// writeSection writes one section frame — kind, column, payload length,
// payload, CRC — and returns the bytes written.
func writeSection(w io.Writer, kind uint8, col int, payload []byte) (int64, error) {
	frame := make([]byte, 0, 13)
	frame = append(frame, kind)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(int32(col)))
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(payload)))
	var n int64
	for _, b := range [][]byte{frame, payload, binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))} {
		m, err := w.Write(b)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Encode writes sig and t as a snapshot stream. It returns the total
// bytes written.
func Encode(w io.Writer, sig Sig, t *Table) (int64, error) {
	var n int64
	hdr := make([]byte, 0, len(magic)+2)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	m, err := w.Write(hdr)
	n += int64(m)
	if err != nil {
		return n, err
	}

	section := func(kind uint8, col int, payload []byte) error {
		m, err := writeSection(w, kind, col, payload)
		n += m
		return err
	}

	var sw sectionWriter
	sw.i64(sig.Size)
	sw.i64(sig.ModTime)
	sw.u32(sig.Prefix)
	sw.u32(sig.Tail)
	sw.i64(t.Rows)
	if err := section(kindHeader, -1, sw.buf); err != nil {
		return n, err
	}

	for _, pm := range t.PosMap {
		sw = sectionWriter{}
		sw.i64s(pm.Rows)
		sw.i64s(pm.Offs)
		if err := section(kindPosMap, pm.Col, sw.buf); err != nil {
			return n, err
		}
	}
	for _, d := range t.Dense {
		sw = sectionWriter{}
		encodeValues(&sw, d.Typ, d.Ints, d.Floats, d.Strs)
		if err := section(kindDense, d.Col, sw.buf); err != nil {
			return n, err
		}
	}
	for _, s := range t.Sparse {
		sw = sectionWriter{}
		sw.i64s(s.Rows)
		encodeValues(&sw, s.Typ, s.Ints, s.Floats, s.Strs)
		if err := section(kindSparse, s.Col, sw.buf); err != nil {
			return n, err
		}
	}
	if len(t.Regions) > 0 {
		sw = sectionWriter{}
		sw.u32(uint32(len(t.Regions)))
		for _, r := range t.Regions {
			sw.u32(uint32(len(r.Cols)))
			for _, c := range r.Cols {
				sw.u32(uint32(int32(c)))
			}
			sw.u32(uint32(len(r.RangeCols)))
			for i, c := range r.RangeCols {
				sw.u32(uint32(int32(c)))
				sw.i64(r.Los[i])
				sw.i64(r.His[i])
			}
		}
		if err := section(kindRegions, -1, sw.buf); err != nil {
			return n, err
		}
	}
	if len(t.Synopsis) > 0 {
		sw = sectionWriter{}
		sw.u32(uint32(len(t.Synopsis)))
		for _, p := range t.Synopsis {
			sw.i64(p.Off)
			sw.i64(p.End)
			sw.i64(p.FirstRow)
			sw.i64(p.Rows)
			sw.u32(uint32(len(p.Cols)))
			for _, c := range p.Cols {
				sw.u32(uint32(int32(c.Col)))
				sw.u8(uint8(c.Typ))
				sw.u8(boolBits(c.MinExact, c.MaxExact))
				sw.i64(c.MinI)
				sw.i64(c.MaxI)
				sw.f64(c.MinF)
				sw.f64(c.MaxF)
				sw.str(c.MinS)
				sw.str(c.MaxS)
			}
		}
		if err := section(kindSynopsis, -1, sw.buf); err != nil {
			return n, err
		}
	}
	return n, nil
}

func boolBits(a, b bool) uint8 {
	var v uint8
	if a {
		v |= 1
	}
	if b {
		v |= 2
	}
	return v
}

func encodeValues(sw *sectionWriter, typ schema.Type, ints []int64, floats []float64, strs []string) {
	sw.u8(uint8(typ))
	switch typ {
	case schema.Int64:
		sw.i64s(ints)
	case schema.Float64:
		sw.u64(uint64(len(floats)))
		for _, v := range floats {
			sw.f64(v)
		}
	default:
		sw.u64(uint64(len(strs)))
		for _, s := range strs {
			sw.str(s)
		}
	}
}

// payloadReader decodes one section's payload; every read is
// bounds-checked so a corrupt length degrades to ErrCorrupt, never a
// panic.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (r *payloadReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) || r.off+n < r.off {
		r.err = ErrCorrupt
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *payloadReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *payloadReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *payloadReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *payloadReader) i64() int64 { return int64(r.u64()) }

// count validates a declared element count against the bytes that remain,
// so hostile lengths cannot drive huge allocations.
func (r *payloadReader) count(elemBytes int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if elemBytes > 0 && n > uint64(len(r.buf)-r.off)/uint64(elemBytes) {
		r.err = ErrCorrupt
		return 0
	}
	return int(n)
}

func (r *payloadReader) i64s() []int64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

func (r *payloadReader) str() string {
	n := r.u32()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

func decodeValues(r *payloadReader) (typ schema.Type, ints []int64, floats []float64, strs []string) {
	typ = schema.Type(r.u8())
	switch typ {
	case schema.Int64:
		ints = r.i64s()
	case schema.Float64:
		n := r.count(8)
		if r.err == nil && n > 0 {
			floats = make([]float64, n)
			for i := range floats {
				floats[i] = math.Float64frombits(r.u64())
			}
		}
	case schema.String:
		n := r.count(4)
		if r.err == nil && n > 0 {
			strs = make([]string, n)
			for i := range strs {
				strs[i] = r.str()
			}
		}
	default:
		r.err = ErrCorrupt
	}
	return
}

// sectionInfo locates one section inside the file.
type sectionInfo struct {
	kind uint8
	col  int
	off  int64 // payload offset
	len  int64 // payload length
}

// Reader provides lazy, section-granular access to a snapshot file. The
// index pass reads only section frames (13 bytes each) and seeks past
// payloads, so opening a large snapshot is cheap; payload bytes are read
// and CRC-checked only when a structure is actually restored. Reader is
// not safe for concurrent use; the catalog serializes access.
type Reader struct {
	f        vfs.File
	sig      Sig
	rows     int64
	sections []sectionInfo
	// truncated reports that the index pass hit a bad frame or early EOF:
	// sections indexed before that point remain usable.
	truncated bool
	// onRead observes payload bytes actually read (cost accounting).
	onRead func(int64)
}

// OpenReader opens a snapshot file and verifies its header against want.
// A missing file returns (nil, fs.ErrNotExist-wrapped error); a header
// that fails to parse returns ErrCorrupt; a signature mismatch returns
// ErrStale. onRead (may be nil) observes every payload byte read.
func OpenReader(path string, want Sig, onRead func(int64)) (*Reader, error) {
	return openReader(nil, path, &want, onRead)
}

// OpenReaderFS is OpenReader through an explicit filesystem.
func OpenReaderFS(fsys vfs.FS, path string, want Sig, onRead func(int64)) (*Reader, error) {
	return openReader(fsys, path, &want, onRead)
}

// OpenReaderAny opens a snapshot without a signature check: the stored
// signature is exposed via Sig() and the caller decides whether the
// snapshot is usable (e.g. whether the raw file is a prefix-stable growth
// of the snapshotted version). Everything else matches OpenReader.
func OpenReaderAny(path string, onRead func(int64)) (*Reader, error) {
	return openReader(nil, path, nil, onRead)
}

// OpenReaderAnyFS is OpenReaderAny through an explicit filesystem.
func OpenReaderAnyFS(fsys vfs.FS, path string, onRead func(int64)) (*Reader, error) {
	return openReader(fsys, path, nil, onRead)
}

func openReader(fsys vfs.FS, path string, want *Sig, onRead func(int64)) (*Reader, error) {
	f, err := vfs.Default(fsys).Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, onRead: onRead}
	if err := r.index(want); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *Reader) index(want *Sig) error {
	hdr := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(r.f, hdr); err != nil {
		return ErrCorrupt
	}
	if string(hdr[:len(magic)]) != magic || binary.LittleEndian.Uint16(hdr[len(magic):]) != version {
		return ErrCorrupt
	}
	off := int64(len(hdr))
	frame := make([]byte, 13)
	first := true
	for {
		if _, err := io.ReadFull(r.f, frame); err != nil {
			if err == io.EOF && !first {
				return nil // clean end of file
			}
			if first {
				return ErrCorrupt
			}
			r.truncated = true
			return nil
		}
		info := sectionInfo{
			kind: frame[0],
			col:  int(int32(binary.LittleEndian.Uint32(frame[1:5]))),
			off:  off + 13,
			len:  int64(binary.LittleEndian.Uint64(frame[5:13])),
		}
		if info.len < 0 {
			r.truncated = !first
			if first {
				return ErrCorrupt
			}
			return nil
		}
		end := info.off + info.len + 4 // payload + crc
		if first {
			// The header section is always decoded eagerly: it carries the
			// staleness check everything else depends on.
			if info.kind != kindHeader {
				return ErrCorrupt
			}
			payload, err := r.payloadAt(info)
			if err != nil {
				return ErrCorrupt
			}
			pr := payloadReader{buf: payload}
			r.sig = Sig{Size: pr.i64(), ModTime: pr.i64(), Prefix: pr.u32(), Tail: pr.u32()}
			r.rows = pr.i64()
			if pr.err != nil {
				return ErrCorrupt
			}
			if want != nil && r.sig != *want {
				return ErrStale
			}
			first = false
		} else {
			// Probe that the section is fully present before indexing it;
			// a truncated tail is dropped here rather than discovered (and
			// re-discovered) at read time.
			st, err := r.f.Stat()
			if err != nil || end > st.Size() {
				r.truncated = true
				return nil
			}
			r.sections = append(r.sections, info)
		}
		if _, err := r.f.Seek(end, io.SeekStart); err != nil {
			r.truncated = true
			return nil
		}
		off = end
	}
}

// payloadAt reads and CRC-checks one section's payload. The declared
// length is validated against the file's actual size first, so a
// corrupted length field cannot drive an outsized allocation.
func (r *Reader) payloadAt(info sectionInfo) ([]byte, error) {
	st, err := r.f.Stat()
	if err != nil || info.len < 0 || info.off+info.len+4 > st.Size() || info.off+info.len < info.off {
		return nil, ErrCorrupt
	}
	buf := make([]byte, info.len+4)
	if _, err := r.f.ReadAt(buf, info.off); err != nil {
		return nil, ErrCorrupt
	}
	payload := buf[:info.len]
	want := binary.LittleEndian.Uint32(buf[info.len:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrCorrupt
	}
	if r.onRead != nil {
		r.onRead(info.len + 17) // payload + frame + crc
	}
	return payload, nil
}

// Sig returns the signature the snapshot was written for.
func (r *Reader) Sig() Sig { return r.sig }

// Rows returns the row count recorded in the header (0 if unknown).
func (r *Reader) Rows() int64 { return r.rows }

// Truncated reports whether the index pass stopped at a damaged frame;
// sections indexed before the damage remain readable.
func (r *Reader) Truncated() bool { return r.truncated }

func (r *Reader) find(kind uint8, col int) (sectionInfo, bool) {
	for _, s := range r.sections {
		if s.kind == kind && s.col == col {
			return s, true
		}
	}
	return sectionInfo{}, false
}

// HasDense reports whether a dense section for col is present.
func (r *Reader) HasDense(col int) bool {
	_, ok := r.find(kindDense, col)
	return ok
}

// DenseCols returns the columns with an indexed dense section, ascending.
func (r *Reader) DenseCols() []int {
	var out []int
	for _, s := range r.sections {
		if s.kind == kindDense {
			out = append(out, s.col)
		}
	}
	sort.Ints(out)
	return out
}

// ForgetDense removes col's dense section from the index (it failed
// validation; retrying would fail the same way).
func (r *Reader) ForgetDense(col int) {
	kept := r.sections[:0]
	for _, s := range r.sections {
		if !(s.kind == kindDense && s.col == col) {
			kept = append(kept, s)
		}
	}
	r.sections = kept
}

// DenseBytes returns the on-disk payload size of col's dense section, or
// 0 when absent. The governor prices re-admission of a snapshotted column
// with it.
func (r *Reader) DenseBytes(col int) int64 {
	s, ok := r.find(kindDense, col)
	if !ok {
		return 0
	}
	return s.len
}

// Dense decodes the dense column section for col.
func (r *Reader) Dense(col int) (DenseCol, error) {
	s, ok := r.find(kindDense, col)
	if !ok {
		return DenseCol{}, fmt.Errorf("%w: no dense section for col %d", ErrCorrupt, col)
	}
	payload, err := r.payloadAt(s)
	if err != nil {
		return DenseCol{}, err
	}
	pr := payloadReader{buf: payload}
	typ, ints, floats, strs := decodeValues(&pr)
	if pr.err != nil {
		return DenseCol{}, pr.err
	}
	return DenseCol{Col: col, Typ: typ, Ints: ints, Floats: floats, Strs: strs}, nil
}

// HasPosMap reports whether any positional-map sections are present.
func (r *Reader) HasPosMap() bool {
	for _, s := range r.sections {
		if s.kind == kindPosMap {
			return true
		}
	}
	return false
}

// PosMap decodes every positional-map section. Corrupt columns are
// skipped (the map is an opportunistic cache); err reports the first
// corruption seen so the caller can count the invalidation.
func (r *Reader) PosMap() ([]PosMapCol, error) {
	var out []PosMapCol
	var firstErr error
	for _, s := range r.sections {
		if s.kind != kindPosMap {
			continue
		}
		payload, err := r.payloadAt(s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		pr := payloadReader{buf: payload}
		rows := pr.i64s()
		offs := pr.i64s()
		if pr.err != nil || len(rows) != len(offs) {
			if firstErr == nil {
				firstErr = ErrCorrupt
			}
			continue
		}
		out = append(out, PosMapCol{Col: s.col, Rows: rows, Offs: offs})
	}
	return out, firstErr
}

// Sparse decodes every sparse column section, skipping corrupt ones.
func (r *Reader) Sparse() ([]SparseCol, error) {
	var out []SparseCol
	var firstErr error
	for _, s := range r.sections {
		if s.kind != kindSparse {
			continue
		}
		payload, err := r.payloadAt(s)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		pr := payloadReader{buf: payload}
		rows := pr.i64s()
		typ, ints, floats, strs := decodeValues(&pr)
		if pr.err != nil {
			if firstErr == nil {
				firstErr = pr.err
			}
			continue
		}
		out = append(out, SparseCol{Col: s.col, Typ: typ, Rows: rows, Ints: ints, Floats: floats, Strs: strs})
	}
	return out, firstErr
}

// Regions decodes the covered-region section (nil when absent).
func (r *Reader) Regions() ([]Region, error) {
	s, ok := r.find(kindRegions, -1)
	if !ok {
		return nil, nil
	}
	payload, err := r.payloadAt(s)
	if err != nil {
		return nil, err
	}
	pr := payloadReader{buf: payload}
	n := int(pr.u32())
	if n < 0 || n > len(payload) {
		return nil, ErrCorrupt
	}
	out := make([]Region, 0, n)
	for i := 0; i < n && pr.err == nil; i++ {
		var reg Region
		nc := int(pr.u32())
		if pr.err != nil || nc > len(payload) {
			return nil, ErrCorrupt
		}
		for j := 0; j < nc; j++ {
			reg.Cols = append(reg.Cols, int(int32(pr.u32())))
		}
		nr := int(pr.u32())
		if pr.err != nil || nr > len(payload) {
			return nil, ErrCorrupt
		}
		for j := 0; j < nr; j++ {
			reg.RangeCols = append(reg.RangeCols, int(int32(pr.u32())))
			reg.Los = append(reg.Los, pr.i64())
			reg.His = append(reg.His, pr.i64())
		}
		out = append(out, reg)
	}
	if pr.err != nil {
		return nil, pr.err
	}
	return out, nil
}

// Synopsis decodes the scan-synopsis section (nil when absent).
func (r *Reader) Synopsis() ([]SynPortion, error) {
	s, ok := r.find(kindSynopsis, -1)
	if !ok {
		return nil, nil
	}
	payload, err := r.payloadAt(s)
	if err != nil {
		return nil, err
	}
	pr := payloadReader{buf: payload}
	n := int(pr.u32())
	if pr.err != nil || n < 0 || n > len(payload) {
		return nil, ErrCorrupt
	}
	out := make([]SynPortion, 0, n)
	for i := 0; i < n && pr.err == nil; i++ {
		p := SynPortion{Off: pr.i64(), End: pr.i64(), FirstRow: pr.i64(), Rows: pr.i64()}
		nc := int(pr.u32())
		if pr.err != nil || nc < 0 || nc > len(payload) {
			return nil, ErrCorrupt
		}
		for j := 0; j < nc; j++ {
			c := SynCol{Col: int(int32(pr.u32())), Typ: schema.Type(pr.u8())}
			bits := pr.u8()
			c.MinExact, c.MaxExact = bits&1 != 0, bits&2 != 0
			c.MinI = pr.i64()
			c.MaxI = pr.i64()
			c.MinF = math.Float64frombits(pr.u64())
			c.MaxF = math.Float64frombits(pr.u64())
			c.MinS = pr.str()
			c.MaxS = pr.str()
			p.Cols = append(p.Cols, c)
		}
		out = append(out, p)
	}
	if pr.err != nil {
		return nil, pr.err
	}
	return out, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// DecodeAll eagerly decodes a whole snapshot file (spill files are small
// and always wanted whole). Semantics match OpenReader for staleness and
// corruption; a truncated tail yields ErrCorrupt.
func DecodeAll(path string, want Sig, onRead func(int64)) (*Table, error) {
	return DecodeAllFS(nil, path, want, onRead)
}

// DecodeAllFS is DecodeAll through an explicit filesystem.
func DecodeAllFS(fsys vfs.FS, path string, want Sig, onRead func(int64)) (*Table, error) {
	r, err := openReader(fsys, path, &want, onRead)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	t := &Table{Rows: r.Rows()}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if r.Truncated() {
		keep(ErrCorrupt)
	}
	pm, err := r.PosMap()
	keep(err)
	t.PosMap = pm
	for _, s := range r.sections {
		if s.kind != kindDense {
			continue
		}
		d, err := r.Dense(s.col)
		if err != nil {
			keep(err)
			continue
		}
		t.Dense = append(t.Dense, d)
	}
	sp, err := r.Sparse()
	keep(err)
	t.Sparse = sp
	regs, err := r.Regions()
	keep(err)
	t.Regions = regs
	sy, err := r.Synopsis()
	keep(err)
	t.Synopsis = sy
	if firstErr != nil {
		return nil, firstErr
	}
	return t, nil
}
