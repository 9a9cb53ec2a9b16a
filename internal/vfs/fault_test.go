package vfs

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"testing"
)

func writeAll(t *testing.T, f File, data string) {
	t.Helper()
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func readAll(t *testing.T, fsys FS, name string) string {
	t.Helper()
	b, err := ReadFile(fsys, name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(b)
}

func TestFaultFSRoundTrip(t *testing.T) {
	fsys := NewFault()
	if err := fsys.MkdirAll("root/sub"); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create("root/sub/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "hello ")
	writeAll(t, f, "world")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fsys, "root/sub/a.txt"); got != "hello world" {
		t.Fatalf("got %q", got)
	}

	r, err := fsys.Open("root/sub/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 6); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("ReadAt got %q", buf)
	}
	sz, err := r.Size()
	if err != nil || sz != 11 {
		t.Fatalf("Size = %d, %v", sz, err)
	}

	names, err := fsys.List("root/sub")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a.txt" {
		t.Fatalf("List = %v", names)
	}

	if _, err := fsys.Open("root/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestFaultFSCrashDiscardsUnsynced(t *testing.T) {
	fsys := NewFault()
	if err := fsys.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, _ := fsys.Create("d/f")
	writeAll(t, f, "durable")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, " volatile")

	fsys.Crash()

	// The old handle is dead.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	// Data survives only up to the last Sync.
	if got := readAll(t, fsys, "d/f"); got != "durable" {
		t.Fatalf("after crash got %q", got)
	}
}

func TestFaultFSCrashDiscardsUnsyncedEntries(t *testing.T) {
	fsys := NewFault()
	if err := fsys.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}

	// Created + synced file data, but the directory entry never SyncDir'd:
	// the file vanishes at crash.
	f, _ := fsys.Create("d/ghost")
	writeAll(t, f, "data")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	fsys.Crash()
	if _, err := fsys.Open("d/ghost"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("un-SyncDir'd entry survived crash: %v", err)
	}

	// tmp + sync + rename + SyncDir survives.
	g, _ := fsys.Create("d/x.tmp")
	writeAll(t, g, "payload")
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = g.Close()
	if err := fsys.Rename("d/x.tmp", "d/x"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	fsys.Crash()
	if got := readAll(t, fsys, "d/x"); got != "payload" {
		t.Fatalf("renamed file lost: %q", got)
	}
	if _, err := fsys.Open("d/x.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("old name resurrected after synced rename")
	}

	// A rename without SyncDir reverts to the old name on crash.
	h, _ := fsys.Create("d/y.tmp")
	writeAll(t, h, "p2")
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	if err := fsys.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename("d/y.tmp", "d/y"); err != nil {
		t.Fatal(err)
	}
	fsys.Crash()
	if _, err := fsys.Open("d/y"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("unsynced rename survived crash")
	}
	if got := readAll(t, fsys, "d/y.tmp"); got != "p2" {
		t.Fatalf("pre-rename name lost: %q", got)
	}
}

func TestFaultFSRemoveAllDurability(t *testing.T) {
	fsys := NewFault()
	if err := fsys.MkdirAll("root/region"); err != nil {
		t.Fatal(err)
	}
	f, _ := fsys.Create("root/region/t.sst")
	writeAll(t, f, "rows")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if err := fsys.SyncDir("root/region"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir("root"); err != nil {
		t.Fatal(err)
	}

	// RemoveAll without SyncDir(root): the subtree reappears after a crash.
	if err := fsys.RemoveAll("root/region"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.List("root/region"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("RemoveAll left dir listed")
	}
	fsys.Crash()
	if got := readAll(t, fsys, "root/region/t.sst"); got != "rows" {
		t.Fatalf("unsynced RemoveAll was durable; got %q", got)
	}

	// RemoveAll + SyncDir(root): gone for good.
	if err := fsys.RemoveAll("root/region"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir("root"); err != nil {
		t.Fatal(err)
	}
	fsys.Crash()
	if _, err := fsys.Open("root/region/t.sst"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("synced RemoveAll not durable: %v", err)
	}
}

func TestFaultFSInjection(t *testing.T) {
	fsys := NewFault()
	if err := fsys.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}

	// Fail exactly the Nth op.
	target := fsys.Ops() + 2
	fsys.SetInject(func(op Op) Fault {
		if op.N == target {
			return FaultErr
		}
		return FaultNone
	})
	f, err := fsys.Create("d/a") // op target-1
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write([]byte("x")) // op target
	var inj *InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("want InjectedError, got %v", err)
	}
	if inj.Op.Kind != OpWrite {
		t.Fatalf("op kind = %v", inj.Op.Kind)
	}

	// Torn write: half the bytes land, then an error.
	fsys.SetInject(func(op Op) Fault {
		if op.Kind == OpWrite {
			return FaultTorn
		}
		return FaultNone
	})
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || err == nil {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}

	// Disk full: nothing lands.
	fsys.SetInject(func(op Op) Fault {
		if op.Kind == OpWrite {
			return FaultDiskFull
		}
		return FaultNone
	})
	n, err = f.Write([]byte("gh"))
	if n != 0 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("disk full: n=%d err=%v", n, err)
	}
	fsys.SetInject(nil)

	// Crash fault both fails the op and discards unsynced state.
	g, _ := fsys.Create("d/b")
	writeAll(t, g, "unsynced")
	fsys.SetInject(func(op Op) Fault {
		if op.Kind == OpSync {
			return FaultCrash
		}
		return FaultNone
	})
	if err := g.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	fsys.SetInject(nil)
	if _, err := fsys.Open("d/b"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("unsynced file survived crash fault")
	}
}

func TestFaultFSMutatingKinds(t *testing.T) {
	for _, k := range []OpKind{OpOpen, OpList, OpRead} {
		if k.Mutating() {
			t.Fatalf("%v should not be mutating", k)
		}
	}
	for _, k := range []OpKind{OpCreate, OpAppend, OpRemove, OpRemoveAll, OpRename, OpMkdir, OpSyncDir, OpWrite, OpSync} {
		if !k.Mutating() {
			t.Fatalf("%v should be mutating", k)
		}
	}
}

// TestOSImpl smoke-tests the real-disk implementation against the same
// contract surface the storage layers use.
func TestOSImpl(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	sub := filepath.Join(dir, "sub")
	if err := fsys.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create(filepath.Join(sub, "a.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "abc")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(filepath.Join(sub, "a.tmp"), filepath.Join(sub, "a")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.List(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("List = %v", names)
	}
	if got := readAll(t, fsys, filepath.Join(sub, "a")); got != "abc" {
		t.Fatalf("got %q", got)
	}
	g, err := fsys.OpenAppend(filepath.Join(sub, "a"))
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, g, "d")
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fsys, filepath.Join(sub, "a")); got != "abcd" {
		t.Fatalf("append got %q", got)
	}
	if err := fsys.Remove(filepath.Join(sub, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Open(filepath.Join(sub, "a")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if err := fsys.RemoveAll(sub); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFSSyncCounting covers the per-path successful-Sync counters the
// group-commit benchmark divides by: failed syncs don't count, counts follow
// the path (not the handle), and a crash preserves them — they tally calls,
// not durable state.
func TestFaultFSSyncCounting(t *testing.T) {
	fsys := NewFault()
	if err := fsys.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, "x")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fsys.SyncCalls("d/a"); got != 2 {
		t.Fatalf("SyncCalls(d/a) = %d, want 2", got)
	}
	if got := fsys.SyncCalls("d/b"); got != 0 {
		t.Fatalf("SyncCalls(d/b) = %d, want 0", got)
	}

	// A failed sync must not count.
	fsys.SetInject(func(op Op) Fault {
		if op.Kind == OpSync {
			return FaultErr
		}
		return FaultNone
	})
	if err := f.Sync(); err == nil {
		t.Fatal("injected sync unexpectedly succeeded")
	}
	fsys.SetInject(nil)
	if got := fsys.SyncCalls("d/a"); got != 2 {
		t.Fatalf("SyncCalls(d/a) after failed sync = %d, want 2", got)
	}

	// A second handle on the same path accumulates into the same counter, and
	// SyncStats snapshots every path at once.
	g, err := fsys.OpenAppend("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	stats := fsys.SyncStats()
	if stats["d/a"] != 3 {
		t.Fatalf("SyncStats[d/a] = %d, want 3", stats["d/a"])
	}

	// Crash keeps the counters: they record calls, not surviving bytes.
	fsys.Crash()
	if got := fsys.SyncCalls("d/a"); got != 3 {
		t.Fatalf("SyncCalls(d/a) after crash = %d, want 3", got)
	}
}
