// Package vfs is the filesystem seam under the storage layers. The kv store
// and the cluster never touch the os package directly; they go through an FS,
// so tests can substitute a fault-injecting, crash-simulating filesystem (see
// FaultFS) and prove every persistence path safe against torn writes, failed
// fsyncs, disk-full errors and power loss.
package vfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is an open file. Files opened for writing are sequential (Create and
// OpenAppend only ever append); files opened for reading support both
// sequential reads and ReadAt. Sync makes the data written so far durable.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage. Data written but not
	// synced is lost by a crash.
	Sync() error
	// Size returns the file's current length in bytes.
	Size() (int64, error)
}

// FS is the set of filesystem operations the storage layers need. Paths use
// the host separator conventions (they are fed to path/filepath helpers).
//
// Durability contract, honoured by the crash simulation in FaultFS and by
// real POSIX filesystems: file data is durable up to the last Sync; a
// created, renamed or removed directory entry is durable only after SyncDir
// on its parent directory.
type FS interface {
	// Create opens a new file for writing, truncating any existing one.
	Create(name string) (File, error)
	// Open opens a file read-only. A missing file yields an error matching
	// fs.ErrNotExist.
	Open(name string) (File, error)
	// OpenAppend opens a file for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// List returns the sorted names (not paths) of dir's direct entries.
	List(dir string) ([]string, error)
	// Remove deletes a file. A missing file yields fs.ErrNotExist.
	Remove(name string) error
	// RemoveAll deletes a file or directory tree; missing paths are not an
	// error.
	RemoveAll(path string) error
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(dir string) error
	// SyncDir makes dir's entries (creations, renames, removals) durable.
	SyncDir(dir string) error
}

// Default is the real-disk filesystem used when no FS is configured.
var Default FS = OS{}

// ReadFile reads the whole named file through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFileAtomic replaces the file at path with data and makes the
// replacement durable. It is the one commit helper of the storage layers (the
// kv TABLES manifest and the cluster MANIFEST both go through it): the bytes
// are written to path+".tmp", synced, renamed over path, and the parent
// directory is synced — so a reader after a crash at any step sees the old
// content or the new content whole, never a mix and never a missing file. A
// nil return means the new content survives any later crash. Every failure
// before the rename removes the temporary file; an error from the directory
// sync leaves the new content in place but not yet durable. Errors are the
// filesystem's own, which name the failed operation and path; callers add what
// was being committed.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// OS is the FS backed by the real filesystem via the os package.
type OS struct{}

type osFile struct{ f *os.File }

func (o osFile) Read(p []byte) (int, error)              { return o.f.Read(p) }
func (o osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }
func (o osFile) Write(p []byte) (int, error)             { return o.f.Write(p) }
func (o osFile) Close() error                            { return o.f.Close() }
func (o osFile) Sync() error                             { return o.f.Sync() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create implements FS.
func (OS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (OS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// OpenAppend implements FS.
func (OS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// List implements FS.
func (OS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// RemoveAll implements FS.
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// Rename implements FS.
func (OS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// SyncDir implements FS. Some filesystems reject fsync on directories; that
// is reported, not swallowed, so CI catches platforms where the rename
// durability protocol silently degrades.
func (OS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("vfs: sync dir %s: %w", dir, err)
	}
	return nil
}

// notExist builds an fs.ErrNotExist-matching error for the fault filesystem.
func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}
