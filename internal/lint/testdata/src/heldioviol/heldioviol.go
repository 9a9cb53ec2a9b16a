// Package heldioviol seeds violations for the lockheldio analyzer: call
// chains reaching the vfs write surface (File.Sync and friends) or a retry
// sleep while a sync mutex is held — the fsync-under-lock scalability cliff.
package heldioviol

import (
	"sync"
	"time"

	"repro/internal/vfs"
)

type logDB struct {
	mu sync.Mutex
	f  vfs.File
}

func (d *logDB) commit() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Sync() // want "File.Sync reached while d.mu is held"
}

func (d *logDB) backoff() {
	d.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep reached while d.mu is held"
	d.mu.Unlock()
}

// flushLocked is the helper shape: the sync happens here, but the lock is
// acquired by the caller, so the finding must land at the caller's call
// site, not inside this function.
func (d *logDB) flushLocked() error {
	return d.f.Sync()
}

func (d *logDB) apply() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushLocked() // want "flushLocked → File.Sync reached while d.mu is held"
}

// commitFile reaches the I/O through the seam's commit helper, which lives in
// another package: the helper itself is classified, not its body.
func (d *logDB) commitFile(fsys vfs.FS) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return vfs.WriteFileAtomic(fsys, "state", nil) // want "vfs.WriteFileAtomic reached while d.mu is held"
}

// okOutside releases before syncing: clean.
func (d *logDB) okOutside() error {
	d.mu.Lock()
	d.mu.Unlock()
	return d.f.Sync()
}

// okDeferred schedules the sync for after the critical section: a deferred
// call does not run under this program point's locks.
func (d *logDB) okDeferred() {
	defer func() { _ = d.f.Sync() }()
	d.mu.Lock()
	d.mu.Unlock()
}
