// Package errs defines the engine's typed error taxonomy. Every failure
// that crosses a package boundary is classified into one of a small set
// of errors.Is-able categories, so callers (and tests) can distinguish
// "the raw file is unreadable" from "the snapshot is corrupt" from "the
// disk is full" without string matching.
//
// Errors are produced with Wrap (or the IOError type directly), which
// makes errors.Is match BOTH the category sentinel and the underlying
// cause — errors.Is(err, ErrDiskFull) and errors.Is(err, syscall.ENOSPC)
// can hold simultaneously.
package errs

import (
	"errors"
	"fmt"
	"io/fs"
	"syscall"
)

// Category sentinels. Match with errors.Is.
var (
	// ErrRawIO marks a read failure against a raw data file (the
	// in-situ CSV/NDJSON source) — open, stat, or read errors observed
	// while scanning, tokenizing, or position-map fetching.
	ErrRawIO = errors.New("raw file I/O error")

	// ErrSnapshotCorrupt marks a snapshot or spill file whose content
	// failed validation (bad magic, truncated frame, checksum or
	// signature mismatch). Distinct from ErrRawIO: the raw source is
	// fine, only the derived cache is damaged.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")

	// ErrDiskFull marks a write that failed for lack of space (ENOSPC
	// or EDQUOT). Write paths that see it degrade to memory-only
	// operation instead of failing queries.
	ErrDiskFull = errors.New("disk full")

	// ErrFileShrunk marks a raw file that got shorter between the size
	// snapshot taken at open/attach time and a subsequent read — the
	// file was truncated or replaced under us. Results computed against
	// the stale size would be silently wrong, so reads fail instead.
	ErrFileShrunk = errors.New("raw file shrunk during scan")
)

// IOError attaches a category sentinel to an underlying cause.
// errors.Is(e, e.Kind) is true, and errors.Is(e, x) also consults the
// wrapped cause chain, so both the taxonomy and the original error
// (fs.PathError, syscall errno, ...) stay matchable.
type IOError struct {
	// Kind is the category sentinel (ErrRawIO, ErrDiskFull, ...).
	Kind error
	// Op names the failing operation ("scan read", "snapshot save").
	Op string
	// Path is the file involved, when known.
	Path string
	// Err is the underlying cause; may be nil for synthesized
	// conditions (e.g. a shrunk file detected by a short read).
	Err error
}

func (e *IOError) Error() string {
	msg := e.Kind.Error()
	if e.Err != nil {
		msg = e.Err.Error()
	}
	if e.Path != "" {
		return fmt.Sprintf("%s: %s: %s", e.Op, e.Path, msg)
	}
	return fmt.Sprintf("%s: %s", e.Op, msg)
}

// Is matches the category sentinel; the cause chain is handled by
// Unwrap, which errors.Is walks on its own.
func (e *IOError) Is(target error) bool { return target == e.Kind }

func (e *IOError) Unwrap() error { return e.Err }

// Wrap classifies err under kind. A nil err returns nil so call sites
// can wrap unconditionally.
func Wrap(kind error, op, path string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, kind) {
		return err // already classified; don't stack categories
	}
	return &IOError{Kind: kind, Op: op, Path: path, Err: err}
}

// New synthesizes a classified error with no underlying cause.
func New(kind error, op, path string) error {
	return &IOError{Kind: kind, Op: op, Path: path}
}

// IsDiskFull reports whether err is an out-of-space condition, either
// already classified as ErrDiskFull or a raw ENOSPC/EDQUOT from the
// kernel (possibly inside an fs.PathError).
func IsDiskFull(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDiskFull) {
		return true
	}
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// ClassifyWrite wraps a write-path error: out-of-space conditions become
// ErrDiskFull, everything else keeps err's own classification (or none).
func ClassifyWrite(op, path string, err error) error {
	if err == nil {
		return nil
	}
	if IsDiskFull(err) {
		return Wrap(ErrDiskFull, op, path, err)
	}
	return err
}

// IsNotExist reports whether err is a file-not-found, unwrapping through
// the taxonomy.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
