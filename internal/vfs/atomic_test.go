package vfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

const (
	atomicDir  = "d"
	atomicPath = "d/STATE"
	atomicOld  = "old content\n"
	atomicNew  = "the new content, longer than the old so a torn mix would show\n"
)

// atomicFixture returns a FaultFS holding atomicPath with the old content,
// durably (written by a fault-free WriteFileAtomic).
func atomicFixture(t *testing.T) *FaultFS {
	t.Helper()
	fsys := NewFault()
	if err := fsys.MkdirAll(atomicDir); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(fsys, atomicPath, []byte(atomicOld)); err != nil {
		t.Fatal(err)
	}
	return fsys
}

// checkAtomicContent fails unless atomicPath reads as one of allowed, whole.
func checkAtomicContent(t *testing.T, fsys FS, when string, allowed ...string) {
	t.Helper()
	got, err := ReadFile(fsys, atomicPath)
	if err != nil {
		t.Fatalf("%s: file unreadable (it must never go missing): %v", when, err)
	}
	for _, want := range allowed {
		if string(got) == want {
			return
		}
	}
	t.Fatalf("%s: file holds %q, want one of %q — torn or mixed content", when, got, allowed)
}

func checkNoTmp(t *testing.T, fsys FS, when string) {
	t.Helper()
	names, err := fsys.List(atomicDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("%s: temporary file %s left behind", when, n)
		}
	}
}

// TestWriteFileAtomicTorture fails, and separately crashes, every mutating
// filesystem operation of one WriteFileAtomic call. Whatever the fault point,
// a reader after the "reboot" sees the old content or the new content whole;
// an injected error leaves no temporary file; and a successful return
// survives a crash issued immediately after it.
func TestWriteFileAtomicTorture(t *testing.T) {
	// Fault-free pass: record the call's mutating operations. The sequence is
	// pinned — the kv and cluster torture suites number their fault points by
	// it, and it is the write → Sync → Rename → SyncDir order the syncrename
	// analyzer checks statically.
	fsys := atomicFixture(t)
	var ops []Op
	fsys.SetInject(func(op Op) Fault {
		if op.Kind.Mutating() {
			ops = append(ops, op)
		}
		return FaultNone
	})
	if err := WriteFileAtomic(fsys, atomicPath, []byte(atomicNew)); err != nil {
		t.Fatal(err)
	}
	var trace []string
	for _, op := range ops {
		trace = append(trace, fmt.Sprintf("%s %s", op.Kind, op.Path))
	}
	wantTrace := []string{
		"create d/STATE.tmp", "write d/STATE.tmp", "sync d/STATE.tmp",
		"rename d/STATE.tmp", "syncdir d",
	}
	if strings.Join(trace, "; ") != strings.Join(wantTrace, "; ") {
		t.Fatalf("op sequence = %q, want %q", trace, wantTrace)
	}
	fsys.Crash()
	checkAtomicContent(t, fsys, "crash right after a successful return", atomicNew)

	for _, op := range ops {
		for _, fault := range []Fault{FaultErr, FaultCrash} {
			when := fmt.Sprintf("fault %d at op %d (%s %s)", fault, op.N, op.Kind, op.Path)
			fsys := atomicFixture(t)
			target := op.N
			fsys.SetInject(func(o Op) Fault {
				if o.N == target {
					return fault
				}
				return FaultNone
			})
			err := WriteFileAtomic(fsys, atomicPath, []byte(atomicNew))
			if err == nil {
				t.Fatalf("%s: call succeeded", when)
			}
			if fault == FaultCrash {
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("%s: error %v does not wrap ErrCrashed", when, err)
				}
				fsys.SetInject(nil) // reboot
				checkAtomicContent(t, fsys, when+", after reboot", atomicOld, atomicNew)
				continue
			}
			// An injected error: the process lives on and must already see a
			// whole file and no debris; then lose power and look again.
			fsys.SetInject(nil)
			checkNoTmp(t, fsys, when)
			checkAtomicContent(t, fsys, when, atomicOld, atomicNew)
			fsys.Crash()
			checkAtomicContent(t, fsys, when+", then a crash", atomicOld, atomicNew)
			checkNoTmp(t, fsys, when+", then a crash")
		}
	}
}
