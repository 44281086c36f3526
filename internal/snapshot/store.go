package snapshot

import (
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"

	"nodb/internal/errs"
	"nodb/internal/metrics"
	"nodb/internal/vfs"
)

// Store manages one cache directory of snapshot and spill files. All
// operations are best-effort: a failed save is logged and counted, a
// stale or corrupt file is invalidated (removed) and counted, and the
// caller always degrades to a cold start — the store never surfaces an
// error to the query path.
//
// Layout, one file set per (table, raw-file-path) key:
//
//	<key>.snap           full snapshot (written on DB.Close / periodic flush)
//	<key>.posmap.spill   the spilled positional map (eviction's disk tier)
//
// One process per cache directory is assumed; concurrent engines sharing
// a directory race benignly (rename is atomic, losers overwrite) but
// waste work.
type Store struct {
	dir      string
	counters *metrics.Counters

	// Logf receives invalidation and save-failure notices (default:
	// log.Printf). Replaceable for tests.
	Logf func(format string, args ...any)

	// FS is the filesystem the store reads and writes through; nil
	// means the real disk. Set before first use.
	FS vfs.FS

	hits          atomic.Int64
	misses        atomic.Int64
	saves         atomic.Int64
	spills        atomic.Int64
	invalidations atomic.Int64

	// degraded marks the store as memory-only: a save or spill hit an
	// out-of-space condition, so the disk tier is sacrificed and the
	// engine keeps serving from memory. The next successful save
	// clears it (space was freed).
	degraded    atomic.Bool
	writeErrors atomic.Int64
}

func (s *Store) fs() vfs.FS { return vfs.Default(s.FS) }

// Stats is a point-in-time snapshot of the store's activity.
type Stats struct {
	// Enabled reports whether a cache directory is configured.
	Enabled bool `json:"enabled"`
	// Dir is the cache directory.
	Dir string `json:"dir,omitempty"`
	// Hits counts snapshot or spill files successfully opened for restore.
	Hits int64 `json:"hits"`
	// Misses counts restore attempts that found no usable file.
	Misses int64 `json:"misses"`
	// Saves counts snapshot files written.
	Saves int64 `json:"saves"`
	// Spills counts structures written to disk by eviction instead of
	// being discarded.
	Spills int64 `json:"spills"`
	// Invalidations counts stale or corrupt files discarded (raw file
	// edits, torn writes, truncation).
	Invalidations int64 `json:"invalidations"`
	// Degraded reports that the store is running memory-only after an
	// out-of-space write failure; it self-heals on the next save that
	// succeeds.
	Degraded bool `json:"degraded"`
	// WriteErrors counts failed snapshot/spill writes.
	WriteErrors int64 `json:"write_errors"`
}

// NewStore creates a store over dir. The directory is created lazily on
// first write, so construction cannot fail. counters may be nil.
func NewStore(dir string, counters *metrics.Counters) *Store {
	return &Store{dir: dir, counters: counters, Logf: log.Printf}
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the store's activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Enabled:       true,
		Dir:           s.dir,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Saves:         s.saves.Load(),
		Spills:        s.spills.Load(),
		Invalidations: s.invalidations.Load(),
		Degraded:      s.degraded.Load(),
		WriteErrors:   s.writeErrors.Load(),
	}
}

// Degraded reports whether the store is running memory-only after an
// out-of-space write failure.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// Key derives the file-name key for a table: the sanitized table name
// plus a hash of the raw file's absolute path, so two tables (or the same
// name relinked to a different file) never collide.
func Key(table, path string) string {
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	return fmt.Sprintf("%s-%08x", sanitize(table), crc32.ChecksumIEEE([]byte(path)))
}

func sanitize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// SnapPath returns the full-snapshot path for key.
func (s *Store) SnapPath(key string) string { return filepath.Join(s.dir, key+".snap") }

// SpillPath returns the spill-file path of key's positional map, the one
// structure eviction spills.
func (s *Store) SpillPath(key string) string {
	return filepath.Join(s.dir, key+".posmap.spill")
}

// save writes a snapshot stream atomically: temp file in the same
// directory, fsync-free write, rename into place. A torn write therefore
// leaves either the old file or a temp file the next open ignores; the
// per-section CRCs catch everything else.
func (s *Store) save(path string, sig Sig, t *Table) error {
	fsys := s.fs()
	if err := fsys.MkdirAll(s.dir, 0o755); err != nil {
		return errs.ClassifyWrite("snapshot mkdir", s.dir, err)
	}
	tmp, err := fsys.CreateTemp(s.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return errs.ClassifyWrite("snapshot create", path, err)
	}
	n, err := Encode(tmp, sig, t)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		fsys.Remove(tmp.Name())
		return errs.ClassifyWrite("snapshot write", path, err)
	}
	if s.counters != nil {
		s.counters.AddSnapshotBytesWritten(n)
	}
	return nil
}

// noteSaveResult maintains the degraded flag: out-of-space failures
// enter degraded (memory-only) mode, any successful save leaves it.
func (s *Store) noteSaveResult(err error) {
	if err == nil {
		if s.degraded.CompareAndSwap(true, false) {
			s.Logf("nodb/snapshot: disk tier recovered; leaving memory-only mode")
		}
		return
	}
	s.writeErrors.Add(1)
	if errs.IsDiskFull(err) && s.degraded.CompareAndSwap(false, true) {
		s.Logf("nodb/snapshot: disk full; degrading to memory-only operation")
	}
}

// Save writes the full snapshot for key. Failures are logged and counted
// but not returned to the query path; the error is for callers that want
// to surface it (DB.Snapshot).
func (s *Store) Save(key string, sig Sig, t *Table) error {
	err := s.save(s.SnapPath(key), sig, t)
	s.noteSaveResult(err)
	if err != nil {
		s.Logf("nodb/snapshot: saving %s: %v", s.SnapPath(key), err)
		return err
	}
	s.saves.Add(1)
	if s.counters != nil {
		s.counters.AddSnapshotSave(1)
	}
	return nil
}

// SaveSpill writes key's evicted positional map. Counted as a spill.
func (s *Store) SaveSpill(key string, sig Sig, t *Table) error {
	err := s.save(s.SpillPath(key), sig, t)
	s.noteSaveResult(err)
	if err != nil {
		s.Logf("nodb/snapshot: spilling %s: %v", s.SpillPath(key), err)
		return err
	}
	s.spills.Add(1)
	if s.counters != nil {
		s.counters.AddSnapshotSpill(1)
	}
	return nil
}

// invalidate removes a stale or corrupt file and counts it.
func (s *Store) invalidate(path string, err error) {
	s.fs().Remove(path)
	s.invalidations.Add(1)
	if s.counters != nil {
		s.counters.AddSnapshotInvalidation(1)
	}
	s.Logf("nodb/snapshot: invalidated %s: %v (cold start for its structures)", path, err)
}

// onRead returns the byte observer wired into readers.
func (s *Store) onRead() func(int64) {
	if s.counters == nil {
		return nil
	}
	return s.counters.AddSnapshotBytesRead
}

// Open opens the full snapshot for key as a lazy reader, verifying its
// header against sig. It returns nil when no usable snapshot exists: a
// missing file counts as a miss; a stale or corrupt one is invalidated.
// A reader with a truncated tail is still returned — its intact prefix
// is usable — with the damage counted once here.
func (s *Store) Open(key string, sig Sig) *Reader {
	path := s.SnapPath(key)
	r, err := OpenReaderFS(s.FS, path, sig, s.onRead())
	switch {
	case err == nil:
		s.hits.Add(1)
		if s.counters != nil {
			s.counters.AddSnapshotHit(1)
		}
		if r.Truncated() {
			s.invalidations.Add(1)
			if s.counters != nil {
				s.counters.AddSnapshotInvalidation(1)
			}
			s.Logf("nodb/snapshot: %s is truncated; restoring its intact prefix only", path)
		}
		return r
	case os.IsNotExist(err):
		s.misses.Add(1)
		if s.counters != nil {
			s.counters.AddSnapshotMiss(1)
		}
		return nil
	default:
		s.invalidate(path, err)
		return nil
	}
}

// OpenVerify opens the full snapshot for key like Open, but delegates the
// staleness decision to ok, which receives the stored signature and
// reports whether the snapshot is usable for the current raw file. The
// append-aware catalog uses it to accept snapshots of a prefix-stable
// ancestor of the file (grown since the save) that Open's exact-match
// check would discard. Files ok rejects are invalidated.
func (s *Store) OpenVerify(key string, ok func(Sig) bool) *Reader {
	path := s.SnapPath(key)
	r, err := OpenReaderAnyFS(s.FS, path, s.onRead())
	if err == nil && !ok(r.Sig()) {
		r.Close()
		r, err = nil, ErrStale
	}
	switch {
	case err == nil:
		s.hits.Add(1)
		if s.counters != nil {
			s.counters.AddSnapshotHit(1)
		}
		if r.Truncated() {
			s.invalidations.Add(1)
			if s.counters != nil {
				s.counters.AddSnapshotInvalidation(1)
			}
			s.Logf("nodb/snapshot: %s is truncated; restoring its intact prefix only", path)
		}
		return r
	case os.IsNotExist(err):
		s.misses.Add(1)
		if s.counters != nil {
			s.counters.AddSnapshotMiss(1)
		}
		return nil
	default:
		s.invalidate(path, err)
		return nil
	}
}

// CountCorrupt records a corrupt section discovered during a lazy read
// (the file stays: other sections may be fine).
func (s *Store) CountCorrupt(key string, err error) {
	s.invalidations.Add(1)
	if s.counters != nil {
		s.counters.AddSnapshotInvalidation(1)
	}
	s.Logf("nodb/snapshot: corrupt section in %s: %v (cold start for that structure)", s.SnapPath(key), err)
}

// LoadSpill decodes and removes key's spilled positional map. A missing
// file returns nil silently (no spill outstanding is the common case);
// stale or corrupt files are invalidated.
func (s *Store) LoadSpill(key string, sig Sig) *Table {
	path := s.SpillPath(key)
	t, err := DecodeAllFS(s.FS, path, sig, s.onRead())
	switch {
	case err == nil:
		s.fs().Remove(path) // one-shot: re-eviction re-spills current state
		s.hits.Add(1)
		if s.counters != nil {
			s.counters.AddSnapshotHit(1)
		}
		return t
	case os.IsNotExist(err):
		return nil
	default:
		s.invalidate(path, err)
		return nil
	}
}

// HasSpill reports whether a spill file exists for key.
func (s *Store) HasSpill(key string) bool {
	_, err := s.fs().Stat(s.SpillPath(key))
	return err == nil
}

// Remove deletes every file of key: the snapshot and all spills, older
// *.splits.spill files included. Used when the raw file changed (the
// files would self-invalidate anyway; removing them reclaims the space
// now).
func (s *Store) Remove(key string) {
	fsys := s.fs()
	fsys.Remove(s.SnapPath(key))
	matches, _ := fsys.Glob(filepath.Join(s.dir, key+".*.spill"))
	for _, m := range matches {
		fsys.Remove(m)
	}
}
