package main

import (
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// memFS is the filesystem every benchmark store runs on: files are byte
// slices in this process, so no run touches a device and the device-shaped
// noise that sank the earlier benchmark (18-28 % between identical runs)
// cannot occur. What a device would have been asked to do is counted
// instead: calls, bytes, syncs, and the time spent inside the seam.
//
// vfs.FaultFS is also in memory, but it takes one lock around every
// operation, reads included, which would serialise the eight region scans a
// query fans out into; here a read takes only its file's read lock.
//
// Semantics follow the vfs.FS contract as the storage layers use it: writers
// only append, Rename replaces atomically, and a handle opened before a
// Rename or Remove keeps reading the file it opened.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool

	readCalls  atomic.Int64
	readBytes  atomic.Int64
	writeCalls atomic.Int64
	writeBytes atomic.Int64
	syncs      atomic.Int64 // File.Sync + SyncDir
	metaCalls  atomic.Int64 // every other FS method
	busyNS     atomic.Int64 // wall time inside Read/ReadAt/Write/Sync
}

type memFile struct {
	mu   sync.RWMutex
	data []byte
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

// fsCounts is a plain-value copy of the counters.
type fsCounts struct {
	ReadCalls, ReadBytes, WriteCalls, WriteBytes, Syncs, MetaCalls int64
	Busy                                                           time.Duration
}

func (m *memFS) counts() fsCounts {
	return fsCounts{
		ReadCalls:  m.readCalls.Load(),
		ReadBytes:  m.readBytes.Load(),
		WriteCalls: m.writeCalls.Load(),
		WriteBytes: m.writeBytes.Load(),
		Syncs:      m.syncs.Load(),
		MetaCalls:  m.metaCalls.Load(),
		Busy:       time.Duration(m.busyNS.Load()),
	}
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{
		ReadCalls:  c.ReadCalls - o.ReadCalls,
		ReadBytes:  c.ReadBytes - o.ReadBytes,
		WriteCalls: c.WriteCalls - o.WriteCalls,
		WriteBytes: c.WriteBytes - o.WriteBytes,
		Syncs:      c.Syncs - o.Syncs,
		MetaCalls:  c.MetaCalls - o.MetaCalls,
		Busy:       c.Busy - o.Busy,
	}
}

// storedBytes is the total size of every file: what the data directory
// would occupy on a device.
func (m *memFS) storedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, f := range m.files {
		f.mu.RLock()
		n += int64(len(f.data))
		f.mu.RUnlock()
	}
	return n
}

// heldBytes is the heap the files occupy (capacity, not length): memory
// that is the benchmark's own, which a device would have held instead.
func (m *memFS) heldBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, f := range m.files {
		f.mu.RLock()
		n += int64(cap(f.data))
		f.mu.RUnlock()
	}
	return n
}

func (m *memFS) meta() { m.metaCalls.Add(1) }

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) Create(name string) (vfs.File, error) {
	m.meta()
	name = filepath.Clean(name)
	f := &memFile{}
	m.mu.Lock()
	m.files[name] = f
	m.mu.Unlock()
	return &memHandle{fs: m, f: f}, nil
}

func (m *memFS) Open(name string) (vfs.File, error) {
	m.meta()
	name = filepath.Clean(name)
	m.mu.Lock()
	f := m.files[name]
	m.mu.Unlock()
	if f == nil {
		return nil, notExist("open", name)
	}
	return &memHandle{fs: m, f: f}, nil
}

func (m *memFS) OpenAppend(name string) (vfs.File, error) {
	m.meta()
	name = filepath.Clean(name)
	m.mu.Lock()
	f := m.files[name]
	if f == nil {
		f = &memFile{}
		m.files[name] = f
	}
	m.mu.Unlock()
	return &memHandle{fs: m, f: f}, nil
}

func (m *memFS) List(dir string) ([]string, error) {
	m.meta()
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, notExist("list", dir)
	}
	var names []string
	for p := range m.files {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	for p := range m.dirs {
		if p != dir && filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) Remove(name string) error {
	m.meta()
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	m.meta()
	path = filepath.Clean(path)
	prefix := path + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := range m.files {
		if p == path || strings.HasPrefix(p, prefix) {
			delete(m.files, p)
		}
	}
	for p := range m.dirs {
		if p == path || strings.HasPrefix(p, prefix) {
			delete(m.dirs, p)
		}
	}
	return nil
}

func (m *memFS) Rename(oldPath, newPath string) error {
	m.meta()
	oldPath, newPath = filepath.Clean(oldPath), filepath.Clean(newPath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldPath]
	if !ok {
		return notExist("rename", oldPath)
	}
	delete(m.files, oldPath)
	m.files[newPath] = f
	return nil
}

func (m *memFS) MkdirAll(dir string) error {
	m.meta()
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := dir; !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
		if d == filepath.Dir(d) {
			break
		}
	}
	return nil
}

func (m *memFS) SyncDir(string) error {
	m.syncs.Add(1)
	return nil
}

// memHandle is one open file: a shared memFile plus this handle's sequential
// read offset.
type memHandle struct {
	fs  *memFS
	f   *memFile
	off int64
}

// read copies from off into p and accounts for the call.
func (h *memHandle) read(p []byte, off int64) int {
	t0 := time.Now()
	h.f.mu.RLock()
	var n int
	if off < int64(len(h.f.data)) {
		n = copy(p, h.f.data[off:])
	}
	h.f.mu.RUnlock()
	h.fs.readCalls.Add(1)
	h.fs.readBytes.Add(int64(n))
	h.fs.busyNS.Add(int64(time.Since(t0)))
	return n
}

func (h *memHandle) Read(p []byte) (int, error) {
	n := h.read(p, h.off)
	h.off += int64(n)
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	n := h.read(p, off)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	t0 := time.Now()
	h.f.mu.Lock()
	h.f.data = append(h.f.data, p...)
	h.f.mu.Unlock()
	h.fs.writeCalls.Add(1)
	h.fs.writeBytes.Add(int64(len(p)))
	h.fs.busyNS.Add(int64(time.Since(t0)))
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.syncs.Add(1)
	return nil
}

func (h *memHandle) Size() (int64, error) {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	return int64(len(h.f.data)), nil
}

func (h *memHandle) Close() error { return nil }

// copyTree duplicates every file and directory under src to the same
// relative path under dst. The copy is taken under the filesystem lock, file
// by file; the caller makes sure no writer is active.
func (m *memFS) copyTree(src, dst string) {
	src, dst = filepath.Clean(src), filepath.Clean(dst)
	prefix := src + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := range m.dirs {
		if p == src || strings.HasPrefix(p, prefix) {
			m.dirs[dst+strings.TrimPrefix(p, src)] = true
		}
	}
	for p, f := range m.files {
		if strings.HasPrefix(p, prefix) {
			f.mu.RLock()
			m.files[dst+strings.TrimPrefix(p, src)] = &memFile{data: append([]byte(nil), f.data...)}
			f.mu.RUnlock()
		}
	}
}
