package vfs

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is wrapped by every operation issued after a simulated crash on
// a file handle or filesystem state that the crash invalidated.
var ErrCrashed = errors.New("vfs: simulated crash")

// ErrDiskFull is wrapped by writes failed with an injected out-of-space
// fault.
var ErrDiskFull = errors.New("vfs: disk full (injected)")

// OpKind classifies one filesystem operation for fault injection.
type OpKind int

// Operation kinds, one per FS/File method that touches state.
const (
	OpCreate OpKind = iota
	OpOpen
	OpAppend
	OpList
	OpRemove
	OpRemoveAll
	OpRename
	OpMkdir
	OpSyncDir
	OpWrite
	OpSync
	OpRead
)

var opNames = [...]string{
	OpCreate: "create", OpOpen: "open", OpAppend: "append", OpList: "list",
	OpRemove: "remove", OpRemoveAll: "removeall", OpRename: "rename",
	OpMkdir: "mkdir", OpSyncDir: "syncdir", OpWrite: "write", OpSync: "sync",
	OpRead: "read",
}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Mutating reports whether a crash at this operation can change what
// survives: reads and listings never do, so torture suites skip them.
func (k OpKind) Mutating() bool {
	switch k {
	case OpOpen, OpList, OpRead:
		return false
	}
	return true
}

// Op identifies one filesystem operation: its global 1-based sequence number,
// kind, and primary path.
type Op struct {
	N    int
	Kind OpKind
	Path string
}

// Fault is an injection decision for one operation.
type Fault int

// Injectable faults. FaultTorn and FaultDiskFull specialize writes; on any
// other operation they degrade to FaultErr.
const (
	// FaultNone lets the operation through.
	FaultNone Fault = iota
	// FaultErr fails the operation with an injected error.
	FaultErr
	// 2 is skipped: torture subtests are named by a fault's number
	// ("fault3" is FaultTorn), so the numbers stay put.
	_
	// FaultTorn writes only half the buffer, then fails: a torn write.
	FaultTorn
	// FaultDiskFull fails a write with ErrDiskFull before any byte lands.
	FaultDiskFull
	// FaultCrash simulates a power loss at this operation: all un-synced
	// data and un-SyncDir'd directory entries vanish, and the operation and
	// every open handle fail with ErrCrashed. The filesystem then stays
	// down — every further operation fails with ErrCrashed — until the
	// harness "reboots" it with SetInject or an explicit Crash call. A
	// crashed machine runs no more I/O: without the down state, background
	// goroutines that raced past the crash could keep mutating the
	// rolled-back namespace (e.g. re-issue a SyncDir or unlink an SSTable
	// the durable manifest still lists) and corrupt the recovery image.
	FaultCrash
)

// InjectedError is the error produced by FaultErr (and by the failing half of
// FaultTorn).
type InjectedError struct {
	Op Op
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("vfs: injected fault at op %d (%s %s)", e.Op.N, e.Op.Kind, e.Op.Path)
}

// FaultFS is an in-memory filesystem with fault injection and crash
// simulation. It tracks durability exactly as the FS contract states: file
// data survives a crash up to the last Sync, and file directory entries
// (creations, renames, removals) survive only once SyncDir ran on the parent
// directory. Directory creation itself is durable immediately — the storage
// layers create their directories at open time, long before any data the
// torture suites reason about.
//
// All methods are safe for concurrent use. The injection hook runs under the
// filesystem lock, so operation numbering is deterministic for a
// deterministic workload.
type FaultFS struct {
	mu     sync.Mutex
	inject func(Op) Fault
	n      int
	gen    int
	// down is set by an injected FaultCrash: the simulated machine has lost
	// power, so every operation fails with ErrCrashed until SetInject or an
	// explicit Crash marks the reboot boundary.
	down bool

	curFiles map[string]*memFile
	curDirs  map[string]bool
	durFiles map[string]*memFile
	durDirs  map[string]bool
	allDirs  map[string]bool // every dir ever created: the tracked namespace

	// syncs counts successful File.Sync calls per path — the observable a
	// group-commit benchmark divides by its write count to prove fsync
	// amortization. Survives Crash: it counts calls, not durable state.
	syncs map[string]int
}

type memFile struct {
	data    []byte
	durable int // synced prefix length
}

// NewFault returns an empty fault-injection filesystem.
func NewFault() *FaultFS {
	return &FaultFS{
		curFiles: make(map[string]*memFile),
		curDirs:  make(map[string]bool),
		durFiles: make(map[string]*memFile),
		durDirs:  make(map[string]bool),
		allDirs:  make(map[string]bool),
		syncs:    make(map[string]int),
	}
}

// SyncCalls returns how many File.Sync calls on path succeeded so far.
func (f *FaultFS) SyncCalls(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs[clean(path)]
}

// SyncStats returns a copy of the per-path successful File.Sync counts.
func (f *FaultFS) SyncStats() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.syncs))
	for k, v := range f.syncs {
		out[k] = v
	}
	return out
}

// SetInject installs (or with nil removes) the fault hook consulted before
// every operation. Reconfiguring injection marks a reboot boundary: it
// clears the down state left by an injected FaultCrash, so the torture
// harnesses' SetInject(nil)-then-reopen sequence recovers from exactly the
// durable state at the crash.
func (f *FaultFS) SetInject(fn func(Op) Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inject = fn
	f.down = false
}

// Ops returns the number of operations issued so far.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Crash simulates a power loss now: un-synced file data and un-SyncDir'd
// directory entries are discarded, and every open handle is invalidated. The
// filesystem itself remains usable, continuing from the durable state — an
// explicit Crash models the whole crash-plus-reboot cycle, so it also clears
// any down state left by an injected FaultCrash.
func (f *FaultFS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
	f.down = false
}

func (f *FaultFS) crashLocked() {
	f.gen++
	// Durable dirs whose tracked ancestors are all durable survive.
	newDirs := make(map[string]bool)
	for d := range f.durDirs {
		if f.visibleLocked(d) {
			newDirs[d] = true
		}
	}
	newFiles := make(map[string]*memFile)
	for p, inode := range f.durFiles {
		if !f.visibleLocked(filepath.Dir(p)) {
			continue
		}
		inode.data = inode.data[:inode.durable]
		newFiles[p] = inode
	}
	f.curDirs = newDirs
	f.curFiles = newFiles
	f.durDirs = cloneDirs(newDirs)
	f.durFiles = cloneFiles(newFiles)
}

// visibleLocked reports whether every tracked ancestor of path (inclusive,
// when path is itself a dir) is durably linked.
func (f *FaultFS) visibleLocked(dir string) bool {
	for d := dir; ; {
		if f.allDirs[d] && !f.durDirs[d] {
			return false
		}
		parent := filepath.Dir(d)
		if parent == d {
			return true
		}
		d = parent
	}
}

func cloneDirs(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func cloneFiles(m map[string]*memFile) map[string]*memFile {
	out := make(map[string]*memFile, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// op numbers the operation, consults the hook, and applies crash faults.
// Returns the fault to apply (already degraded to FaultErr where the kind
// does not support the specific fault) and a non-nil error for faults that
// fail the op outright.
func (f *FaultFS) op(kind OpKind, path string) (Op, Fault, error) {
	f.n++
	o := Op{N: f.n, Kind: kind, Path: path}
	if f.down {
		// The machine is off: nothing runs until the reboot boundary
		// (SetInject or Crash). The hook is not consulted.
		return o, FaultCrash, fmt.Errorf("vfs: op %d (%s %s): %w", o.N, kind, path, ErrCrashed)
	}
	if f.inject == nil {
		return o, FaultNone, nil
	}
	switch fault := f.inject(o); fault {
	case FaultNone:
		return o, FaultNone, nil
	case FaultCrash:
		f.crashLocked()
		f.down = true
		return o, fault, fmt.Errorf("vfs: op %d (%s %s): %w", o.N, kind, path, ErrCrashed)
	case FaultTorn, FaultDiskFull:
		if kind == OpWrite {
			return o, fault, nil // handled by Write itself
		}
		return o, FaultErr, &InjectedError{Op: o}
	default:
		return o, FaultErr, &InjectedError{Op: o}
	}
}

func clean(p string) string { return filepath.Clean(p) }

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = clean(name)
	if _, _, err := f.op(OpCreate, name); err != nil {
		return nil, err
	}
	if !f.curDirs[filepath.Dir(name)] {
		return nil, notExist("create", name)
	}
	inode := &memFile{}
	f.curFiles[name] = inode
	return &faultFile{fs: f, inode: inode, path: name, gen: f.gen, writable: true}, nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = clean(name)
	if _, _, err := f.op(OpAppend, name); err != nil {
		return nil, err
	}
	inode := f.curFiles[name]
	if inode == nil {
		if !f.curDirs[filepath.Dir(name)] {
			return nil, notExist("append", name)
		}
		inode = &memFile{}
		f.curFiles[name] = inode
	}
	return &faultFile{fs: f, inode: inode, path: name, gen: f.gen, writable: true}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = clean(name)
	if _, _, err := f.op(OpOpen, name); err != nil {
		return nil, err
	}
	inode := f.curFiles[name]
	if inode == nil {
		return nil, notExist("open", name)
	}
	return &faultFile{fs: f, inode: inode, path: name, gen: f.gen}, nil
}

// List implements FS.
func (f *FaultFS) List(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = clean(dir)
	if _, _, err := f.op(OpList, dir); err != nil {
		return nil, err
	}
	if !f.curDirs[dir] {
		return nil, notExist("list", dir)
	}
	var names []string
	for p := range f.curFiles {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	for p := range f.curDirs {
		if p != dir && filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = clean(name)
	if _, _, err := f.op(OpRemove, name); err != nil {
		return err
	}
	if _, ok := f.curFiles[name]; !ok {
		return notExist("remove", name)
	}
	delete(f.curFiles, name)
	return nil
}

// RemoveAll implements FS.
func (f *FaultFS) RemoveAll(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	path = clean(path)
	if _, _, err := f.op(OpRemoveAll, path); err != nil {
		return err
	}
	delete(f.curFiles, path)
	delete(f.curDirs, path)
	prefix := path + string(filepath.Separator)
	for p := range f.curFiles {
		if strings.HasPrefix(p, prefix) {
			delete(f.curFiles, p)
		}
	}
	for p := range f.curDirs {
		if strings.HasPrefix(p, prefix) {
			delete(f.curDirs, p)
		}
	}
	return nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldPath, newPath = clean(oldPath), clean(newPath)
	if _, _, err := f.op(OpRename, oldPath); err != nil {
		return err
	}
	inode, ok := f.curFiles[oldPath]
	if !ok {
		return notExist("rename", oldPath)
	}
	if !f.curDirs[filepath.Dir(newPath)] {
		return notExist("rename", newPath)
	}
	delete(f.curFiles, oldPath)
	f.curFiles[newPath] = inode
	return nil
}

// MkdirAll implements FS. Directory creation is durable immediately (see the
// type comment).
func (f *FaultFS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = clean(dir)
	if _, _, err := f.op(OpMkdir, dir); err != nil {
		return err
	}
	for d := dir; ; {
		f.curDirs[d] = true
		f.durDirs[d] = true
		f.allDirs[d] = true
		parent := filepath.Dir(d)
		if parent == d {
			return nil
		}
		d = parent
	}
}

// SyncDir implements FS: the directory's current file and subdirectory entry
// set becomes the durable one.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	dir = clean(dir)
	if _, _, err := f.op(OpSyncDir, dir); err != nil {
		return err
	}
	if !f.curDirs[dir] {
		return notExist("syncdir", dir)
	}
	for p, inode := range f.curFiles {
		if filepath.Dir(p) == dir {
			f.durFiles[p] = inode
		}
	}
	for p := range f.durFiles {
		if filepath.Dir(p) == dir {
			if _, ok := f.curFiles[p]; !ok {
				delete(f.durFiles, p)
			}
		}
	}
	for p := range f.durDirs {
		if p != dir && filepath.Dir(p) == dir && !f.curDirs[p] {
			delete(f.durDirs, p)
		}
	}
	return nil
}

// faultFile is one open handle. A crash invalidates it (generation check).
type faultFile struct {
	fs       *FaultFS
	inode    *memFile
	path     string
	gen      int
	readOff  int64
	writable bool
	closed   bool
}

func (h *faultFile) check() error {
	if h.closed {
		return fmt.Errorf("vfs: %s: file already closed", h.path)
	}
	if h.gen != h.fs.gen {
		return fmt.Errorf("vfs: %s: %w", h.path, ErrCrashed)
	}
	return nil
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	o, fault, err := h.fs.op(OpWrite, h.path)
	if err != nil {
		return 0, err
	}
	if !h.writable {
		return 0, fmt.Errorf("vfs: %s: not open for writing", h.path)
	}
	switch fault {
	case FaultTorn:
		n := len(p) / 2
		h.inode.data = append(h.inode.data, p[:n]...)
		return n, &InjectedError{Op: o}
	case FaultDiskFull:
		return 0, fmt.Errorf("vfs: op %d (write %s): %w", o.N, h.path, ErrDiskFull)
	}
	h.inode.data = append(h.inode.data, p...)
	return len(p), nil
}

func (h *faultFile) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if _, _, err := h.fs.op(OpRead, h.path); err != nil {
		return 0, err
	}
	if h.readOff >= int64(len(h.inode.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.inode.data[h.readOff:])
	h.readOff += int64(n)
	return n, nil
}

func (h *faultFile) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if _, _, err := h.fs.op(OpRead, h.path); err != nil {
		return 0, err
	}
	if off < 0 || off > int64(len(h.inode.data)) {
		return 0, fmt.Errorf("vfs: %s: read at %d beyond size %d", h.path, off, len(h.inode.data))
	}
	n := copy(p, h.inode.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	if _, _, err := h.fs.op(OpSync, h.path); err != nil {
		return err
	}
	h.inode.durable = len(h.inode.data)
	h.fs.syncs[h.path]++
	return nil
}

func (h *faultFile) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	return int64(len(h.inode.data)), nil
}

func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
