// Package vfs is the engine's filesystem seam. Every component that
// touches disk — scanner, loader, catalog, snapshot store, follow-mode
// refresh — goes through an FS instead of calling the os
// package directly, so tests can substitute a FaultFS that injects
// scheduled failures (EIO at byte N, ENOSPC, torn writes, shrinking
// files) and prove the engine's failure semantics.
//
// The default implementation, OS, is a zero-cost passthrough to the os
// package. A nil FS anywhere in the engine means OS.
package vfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the engine uses.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	Stat() (os.FileInfo, error)
	Name() string
	Sync() error
}

// FS abstracts the filesystem operations the engine performs.
type FS interface {
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Create(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Stat(name string) (os.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	Glob(pattern string) ([]string, error)
}

// OS is the passthrough FS backed by the real filesystem.
type OS struct{}

func (OS) Open(name string) (File, error) { return os.Open(name) }

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) Create(name string) (File, error) { return os.Create(name) }

func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

// Default returns fsys, or the passthrough OS when fsys is nil. Call
// sites thread FS values lazily; nil always means "the real disk".
func Default(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}
