package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// Ingest: an Apply whose entries alone fill a memtable becomes a table of its
// own. These tests pin what that must not change — which version of a key a
// read sees — and what it must: no WAL record, no group commit.

const ingestMemtable = 4 << 10

func ingestOpts(dir string) Options {
	return Options{Dir: dir, MemtableBytes: ingestMemtable, CompactAt: -1}
}

// fillBatch adds distinct filler puts to b until its entries reach the
// ingest threshold.
func fillBatch(b *Batch, threshold int) {
	for i := 0; batchBytes(b) < threshold; i++ {
		b.Put([]byte(fmt.Sprintf("zfill%05d", i)), []byte(strings.Repeat("f", 100)))
	}
}

func batchBytes(b *Batch) int {
	n := 0
	for _, e := range b.entries {
		n += entryBytes(e.key, e.value)
	}
	return n
}

func mustGet(t *testing.T, get func([]byte) ([]byte, error), key, want string) {
	t.Helper()
	got, err := get([]byte(key))
	if want == "" {
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) = %q, %v; want not found", key, got, err)
		}
		return
	}
	if err != nil || string(got) != want {
		t.Fatalf("Get(%s) = %q, %v; want %q", key, got, err, want)
	}
}

// An ingested batch is newer than every version already stored: in the
// active memtable, in a frozen memtable a snapshot pins, and in a table. The
// snapshot taken before it keeps seeing the old versions; one taken after
// sees the batch.
func TestIngestShadowsOlderVersions(t *testing.T) {
	db := newTestDB(t, ingestOpts(t.TempDir()))
	for _, k := range []string{"table", "gone"} {
		if err := db.Put([]byte(k), []byte("old-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("frozen"), []byte("old-frozen")); err != nil {
		t.Fatal(err)
	}
	before, err := db.Snapshot() // freezes the memtable holding "frozen"
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	if err := db.Put([]byte("active"), []byte("old-active")); err != nil {
		t.Fatal(err)
	}

	var b Batch
	for _, k := range []string{"table", "frozen", "active"} {
		b.Put([]byte(k), []byte("new-"+k))
	}
	b.Delete([]byte("gone"))
	fillBatch(&b, ingestMemtable)
	commits := db.Stats().GroupCommits
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().GroupCommits; got != commits {
		t.Fatalf("ingest ran %d group commits", got-commits)
	}
	after, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	for _, k := range []string{"table", "frozen", "active"} {
		mustGet(t, db.Get, k, "new-"+k)
		mustGet(t, after.Get, k, "new-"+k)
	}
	mustGet(t, db.Get, "gone", "")
	mustGet(t, after.Get, "gone", "")
	mustGet(t, db.Get, "zfill00000", strings.Repeat("f", 100))
	// The snapshot from before the ingest sees none of it.
	mustGet(t, before.Get, "table", "old-table")
	mustGet(t, before.Get, "frozen", "old-frozen")
	mustGet(t, before.Get, "gone", "old-gone")
	mustGet(t, before.Get, "active", "")
	mustGet(t, before.Get, "zfill00000", "")

	// A scan agrees.
	it := db.Scan([]byte("a"), []byte("u"))
	var keys []string
	for it.Next() {
		keys = append(keys, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if want := "active=new-active frozen=new-frozen table=new-table"; strings.Join(keys, " ") != want {
		t.Fatalf("scan = %v, want %s", keys, want)
	}
}

// Within a batch the last entry for a key wins, a put or a tombstone alike,
// and a tombstone in the batch hides the row an older table holds — also
// once the batch's table is merged with that table, and after a reopen.
func TestIngestLastEntryWins(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(ingestOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("hidden"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Put([]byte("twice"), []byte("first"))
	b.Put([]byte("hidden"), []byte("put-then-deleted"))
	b.Delete([]byte("revived"))
	b.Put([]byte("twice"), []byte("second"))
	b.Delete([]byte("hidden"))
	b.Put([]byte("revived"), []byte("back"))
	fillBatch(&b, ingestMemtable)
	n := b.Len()
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != n {
		t.Fatalf("Apply changed the batch: %d entries, was %d", b.Len(), n)
	}
	check := func(when string) {
		t.Helper()
		mustGet(t, db.Get, "twice", "second")
		mustGet(t, db.Get, "hidden", "")
		mustGet(t, db.Get, "revived", "back")
		if err := db.Verify(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("ingested")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(ingestOpts(dir)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check("reopened")
}

// The threshold is the memtable's own byte count: a batch one byte under it
// is a WAL record and a group commit; one that reaches it is a table and
// touches neither the WAL nor the commit count.
func TestIngestThreshold(t *testing.T) {
	db := newTestDB(t, ingestOpts(t.TempDir()))
	one := func(key string, bytes int) *Batch {
		var b Batch
		b.Put([]byte(key), make([]byte, bytes-entryBytes([]byte(key), nil)))
		if batchBytes(&b) != bytes {
			t.Fatalf("batch holds %d bytes, want %d", batchBytes(&b), bytes)
		}
		return &b
	}

	if err := db.Apply(one("under", ingestMemtable-1)); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.GroupCommits != 1 || walSize(t, db) == 0 || db.Tables() != 0 {
		t.Fatalf("batch under the threshold: %d group commits, %d WAL bytes, %d tables; want 1, >0, 0",
			st.GroupCommits, walSize(t, db), db.Tables())
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	st = db.Stats()
	wal := walSize(t, db)
	if err := db.Apply(one("at", ingestMemtable)); err != nil {
		t.Fatal(err)
	}
	got := db.Stats().Sub(st)
	if got.GroupCommits != 0 || got.Flushes != 0 || walSize(t, db) != wal || db.Tables() != 2 {
		t.Fatalf("batch at the threshold: %d group commits, %d flushes, WAL %d → %d bytes, %d tables; want 0, 0, unchanged, 2",
			got.GroupCommits, got.Flushes, wal, walSize(t, db), db.Tables())
	}
	if got.Puts != 1 || got.BytesWritten == 0 {
		t.Fatalf("ingest counted %d puts and %d bytes written", got.Puts, got.BytesWritten)
	}
	mustGet(t, db.Get, "under", string(make([]byte, ingestMemtable-1-entryBytes([]byte("under"), nil))))
	mustGet(t, db.Get, "at", string(make([]byte, ingestMemtable-entryBytes([]byte("at"), nil))))
}

// Ingest torture: acknowledged writes sit in the memtable (and the WAL), then
// an Apply takes the ingest path; an error, and separately a crash, is
// injected at every filesystem operation of that Apply. The batch is whole or
// absent — live and after a power loss — every earlier acknowledged write
// survives, Verify passes and no stray table or temp file is left.

func ingestTortureOpts(fsys vfs.FS) Options {
	return Options{Dir: tortureDir, FS: fsys, SyncWrites: true, MemtableBytes: 2 << 10, CompactAt: -1}
}

// ingestTorture runs the workload; during the Apply, inject decides each
// filesystem operation. It returns the batch's keys and the Apply's error.
func ingestTorture(t *testing.T, fsys *vfs.FaultFS, model *vfstest.Model, inject func(vfs.Op) vfs.Fault) ([]string, error) {
	t.Helper()
	db, err := Open(ingestTortureOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("acked-%03d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model.Put(k, v, true)
	}
	var b Batch
	var keys []string
	for i := 5; i < 40; i++ {
		k := fmt.Sprintf("k%03d", i)
		keys = append(keys, k)
		if i == 7 {
			b.Delete([]byte(k))
			continue
		}
		b.Put([]byte(k), []byte(fmt.Sprintf("batch-%03d-%s", i, strings.Repeat("b", 40))))
	}
	if batchBytes(&b) < 2<<10 {
		t.Fatal("fixture: the batch does not reach the ingest threshold")
	}
	fsys.SetInject(inject)
	err = db.Apply(&b)
	fsys.SetInject(nil)
	for i, e := range b.entries {
		if e.kind == kindTombstone {
			model.Delete(keys[i], err == nil)
		} else {
			model.Put(keys[i], string(e.value), err == nil)
		}
	}
	if err == nil {
		return keys, nil
	}
	// Live: a failed ingest applied none of the batch.
	if !errors.Is(err, vfs.ErrCrashed) {
		for _, k := range keys[5:] { // keys no earlier write touched
			if _, gerr := db.Get([]byte(k)); !errors.Is(gerr, ErrNotFound) {
				t.Fatalf("failed ingest left %s readable: %v (%v)", k, gerr, err)
			}
		}
	}
	return keys, err
}

// checkIngestRecovered reopens after a power loss and checks the batch is
// whole or absent, the model holds and the directory is clean.
func checkIngestRecovered(t *testing.T, fsys *vfs.FaultFS, model *vfstest.Model, keys []string, when string) {
	t.Helper()
	fsys.Crash()
	db, err := Open(ingestTortureOpts(fsys))
	if err != nil {
		t.Fatalf("%s: reopen: %v", when, err)
	}
	defer db.Close()
	if err := db.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", when, err)
	}
	if err := model.CheckAll(func(key string) (string, bool, error) {
		v, err := db.Get([]byte(key))
		if errors.Is(err, ErrNotFound) {
			return "", false, nil
		}
		return string(v), err == nil, err
	}); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	present := 0
	for _, k := range keys[5:] { // k010..: written by the batch alone
		if _, err := db.Get([]byte(k)); err == nil {
			present++
		}
	}
	if present != 0 && present != len(keys)-5 {
		t.Fatalf("%s: %d of the batch's %d new keys recovered, want all or none", when, present, len(keys)-5)
	}
	names, err := fsys.List(tortureDir)
	if err != nil {
		t.Fatal(err)
	}
	ssts := 0
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			t.Fatalf("%s: %s left over", when, name)
		}
		if strings.HasSuffix(name, sstSuffix) {
			ssts++
		}
	}
	if ssts != db.Tables() {
		t.Fatalf("%s: %d .sst files for %d live tables", when, ssts, db.Tables())
	}
}

func TestIngestTorture(t *testing.T) {
	var points []int
	fsys := vfs.NewFault()
	model := vfstest.NewModel()
	keys, err := ingestTorture(t, fsys, model, func(op vfs.Op) vfs.Fault {
		points = append(points, op.N)
		return vfs.FaultNone
	})
	if err != nil {
		t.Fatalf("baseline ingest: %v", err)
	}
	if len(points) < 10 {
		t.Fatalf("the ingest made only %d filesystem operations; too few to be the ingest path", len(points))
	}
	checkIngestRecovered(t, fsys, model, keys, "baseline")
	t.Logf("%d fault points", len(points))
	for _, fault := range []vfs.Fault{vfs.FaultErr, vfs.FaultCrash} {
		for _, point := range strided(t, points) {
			when := fmt.Sprintf("fault %d at op %d", fault, point)
			fsys := vfs.NewFault()
			model := vfstest.NewModel()
			keys, err := ingestTorture(t, fsys, model, func(op vfs.Op) vfs.Fault {
				if op.N == point {
					return fault
				}
				return vfs.FaultNone
			})
			if err == nil {
				t.Fatalf("%s: the ingest did not fail", when)
			}
			checkIngestRecovered(t, fsys, model, keys, when)
		}
	}
}

// A WAL record header that claims more bytes than the rest of the file is a
// torn tail: replay stops there without allocating what the header claims.
func TestWALReplayBoundsRecordLength(t *testing.T) {
	fsys := vfs.NewFault()
	db, err := Open(Options{Dir: tortureDir, FS: fsys, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(strings.Repeat("v", 1024))); err != nil {
			t.Fatal(err)
		}
	}
	walBytes := closedWAL(t, fsys, db, walSize(t, db))
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(nil))
	binary.LittleEndian.PutUint32(hdr[4:8], 1<<30-1)
	walBytes = append(walBytes, hdr[:]...)
	walBytes = append(walBytes, "tail"...)

	db2, _ := openTruncatedWAL(t, walBytes, len(walBytes))
	for i := 0; i < n; i++ {
		mustGet(t, db2.Get, fmt.Sprintf("k%03d", i), strings.Repeat("v", 1024))
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	records := 0
	path := filepath.Join(tortureDir, walName)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err = replayWAL(db2.opts.FS, path, func([]batchEntry) { records++ })
	runtime.ReadMemStats(&after)
	if err != nil || records != n {
		t.Fatalf("replay: %d records, %v; want %d", records, err, n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(walBytes)) {
		t.Fatalf("replay of a %d-byte WAL allocated %d bytes", len(walBytes), alloc)
	}
}
