package kv

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// Torture suite: run a deterministic put/delete/flush/compact workload on the
// fault-injection filesystem, fail or crash at every mutating filesystem
// operation in turn, reopen, and check the store against the
// acknowledged-writes model — nothing acknowledged may be lost, nothing
// never-written may appear, and Verify must pass.

const tortureDir = "torture"

func tortureOpts(fsys vfs.FS) Options {
	return Options{
		Dir:           tortureDir,
		FS:            fsys,
		SyncWrites:    true,
		MemtableBytes: 2 << 10, // force several auto-flushes
		CompactAt:     3,       // and automatic compactions
	}
}

// tortureWorkload drives db deterministically, recording every op's
// acknowledgement in model. It stops at the first simulated-crash error
// (the "process" died); other errors are recorded and the workload carries
// on, exercising the poisoned-WAL healing path.
type tortureWorkload struct {
	db      *DB
	model   *vfstest.Model
	crashed bool
}

func (w *tortureWorkload) sawCrash(err error) bool {
	if errors.Is(err, vfs.ErrCrashed) {
		w.crashed = true
	}
	return w.crashed
}

func (w *tortureWorkload) put(k, v string) {
	if w.crashed {
		return
	}
	err := w.db.Put([]byte(k), []byte(v))
	w.model.Put(k, v, err == nil)
	w.sawCrash(err)
}

func (w *tortureWorkload) del(k string) {
	if w.crashed {
		return
	}
	err := w.db.Delete([]byte(k))
	w.model.Delete(k, err == nil)
	w.sawCrash(err)
}

func (w *tortureWorkload) apply(b *Batch, keys, vals []string) {
	if w.crashed {
		return
	}
	err := w.db.Apply(b)
	for i, k := range keys {
		if vals[i] == "" {
			w.model.Delete(k, err == nil)
		} else {
			w.model.Put(k, vals[i], err == nil)
		}
	}
	w.sawCrash(err)
}

func (w *tortureWorkload) flush() {
	if w.crashed {
		return
	}
	w.sawCrash(w.db.Flush())
}

func (w *tortureWorkload) compact() {
	if w.crashed {
		return
	}
	w.sawCrash(w.db.Compact())
}

// run is the complete deterministic workload: enough volume for auto-flushes
// and a tiered compaction, plus deletes, overwrites, a batch, and explicit
// flush/compact calls.
func (w *tortureWorkload) run() {
	val := func(i, round int) string {
		return fmt.Sprintf("value-%03d-%d-%s", i, round, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	for i := 0; i < 24; i++ {
		w.put(fmt.Sprintf("k%03d", i), val(i, 0))
	}
	w.flush()
	for i := 0; i < 24; i += 2 {
		w.put(fmt.Sprintf("k%03d", i), val(i, 1))
	}
	for i := 1; i < 12; i += 3 {
		w.del(fmt.Sprintf("k%03d", i))
	}
	w.flush()

	var b Batch
	var bkeys, bvals []string
	for i := 24; i < 32; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := val(i, 2)
		b.Put([]byte(k), []byte(v))
		bkeys = append(bkeys, k)
		bvals = append(bvals, v)
	}
	b.Delete([]byte("k000"))
	bkeys = append(bkeys, "k000")
	bvals = append(bvals, "")
	w.apply(&b, bkeys, bvals)

	w.compact()
	for i := 0; i < 16; i++ {
		w.put(fmt.Sprintf("k%03d", i+32), val(i+32, 3))
	}
	w.del("k002")
	w.flush()
}

// countFaultPoints runs the workload once with a recording hook and returns
// the op numbers of every mutating filesystem operation.
func countFaultPoints(t *testing.T) []int {
	t.Helper()
	fsys := vfs.NewFault()
	var points []int
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind.Mutating() {
			points = append(points, op.N)
		}
		return vfs.FaultNone
	})
	db, err := Open(tortureOpts(fsys))
	if err != nil {
		t.Fatalf("baseline open: %v", err)
	}
	w := &tortureWorkload{db: db, model: vfstest.NewModel()}
	w.run()
	if w.crashed {
		t.Fatal("baseline run crashed without injection")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("baseline close: %v", err)
	}
	if len(points) < 50 {
		t.Fatalf("workload produced only %d fault points; too small to be meaningful", len(points))
	}
	return points
}

// strided thins the fault-point list under -short so the suite stays quick;
// full enumeration otherwise.
func strided(t *testing.T, points []int) []int {
	if !testing.Short() {
		return points
	}
	stride := len(points)/40 + 1
	var out []int
	for i := 0; i < len(points); i += stride {
		out = append(out, points[i])
	}
	return out
}

// checkRecovered reopens the store with injection disarmed and verifies the
// recovered contents against the model.
func checkRecovered(t *testing.T, fsys *vfs.FaultFS, model *vfstest.Model, point int) {
	t.Helper()
	fsys.SetInject(nil)
	db, err := Open(tortureOpts(fsys))
	if err != nil {
		t.Fatalf("fault point %d: reopen: %v", point, err)
	}
	defer db.Close()
	if err := db.Verify(); err != nil {
		t.Fatalf("fault point %d: Verify: %v", point, err)
	}
	err = model.CheckAll(func(key string) (string, bool, error) {
		v, err := db.Get([]byte(key))
		if err == ErrNotFound {
			return "", false, nil
		}
		if err != nil {
			return "", false, err
		}
		return string(v), true, nil
	})
	if err != nil {
		t.Fatalf("fault point %d: %v", point, err)
	}
	// A full scan must not surface anything the model never saw, and every
	// surfaced value must be a legal (acked or in-flight) value for its key.
	it := db.Scan(nil, nil)
	defer it.Close()
	for it.Next() {
		if err := model.Check(string(it.Key()), string(it.Value()), true); err != nil {
			t.Fatalf("fault point %d: scan: %v", point, err)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("fault point %d: scan: %v", point, err)
	}
}

// TestKVCrashTorture simulates a power loss at every mutating filesystem
// operation of the workload and checks recovery.
func TestKVCrashTorture(t *testing.T) {
	points := strided(t, countFaultPoints(t))
	for _, p := range points {
		point := p
		fsys := vfs.NewFault()
		fsys.SetInject(func(op vfs.Op) vfs.Fault {
			if op.N == point {
				return vfs.FaultCrash
			}
			return vfs.FaultNone
		})
		db, err := Open(tortureOpts(fsys))
		model := vfstest.NewModel()
		if err == nil {
			w := &tortureWorkload{db: db, model: model}
			w.run()
			// The "process" is dead: stop its background goroutines before
			// reopening the directory, as a real exit would. Errors are
			// expected — the WAL handle died with the crash.
			_ = db.Close()
		} else if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("fault point %d: open failed non-crash: %v", point, err)
		}
		checkRecovered(t, fsys, model, point)
	}
}

// TestKVErrorTorture injects a single permanent error, torn write, or
// disk-full at every mutating operation in turn; the workload continues
// best-effort (exercising poisoned-WAL healing and flush retry), then the
// machine "loses power" and the store must recover everything acknowledged.
func TestKVErrorTorture(t *testing.T) {
	points := strided(t, countFaultPoints(t))
	for _, kind := range []vfs.Fault{vfs.FaultErr, vfs.FaultTorn, vfs.FaultDiskFull} {
		kind := kind
		t.Run(fmt.Sprintf("fault%d", int(kind)), func(t *testing.T) {
			for _, p := range points {
				point := p
				fsys := vfs.NewFault()
				fsys.SetInject(func(op vfs.Op) vfs.Fault {
					if op.N == point {
						return kind
					}
					return vfs.FaultNone
				})
				model := vfstest.NewModel()
				db, err := Open(tortureOpts(fsys))
				if err == nil {
					w := &tortureWorkload{db: db, model: model}
					w.run()
					if w.crashed {
						t.Fatalf("fault point %d: error injection caused crash error", point)
					}
					// Quiesce the background goroutines before the simulated
					// power loss; Close may fail on a poisoned WAL.
					_ = db.Close()
				}
				// Power loss after the (possibly degraded) run: only
				// acknowledged state may be counted on.
				fsys.Crash()
				checkRecovered(t, fsys, model, point)
			}
		})
	}
}

// TestWALTornTailEveryOffset truncates a synced WAL at every byte offset and
// asserts replay recovers exactly the records whose bytes fully survived —
// the acknowledged prefix — and nothing after the tear.
func TestWALTornTailEveryOffset(t *testing.T) {
	// Build a WAL with known record boundaries.
	fsys := vfs.NewFault()
	db, err := Open(Options{Dir: tortureDir, FS: fsys, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	boundaries := make([]int64, 0, n) // WAL size after each record
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, walSize(t, db))
	}
	walBytes := closedWAL(t, fsys, db, boundaries[n-1])

	for _, off := range truncations(len(walBytes)) {
		// How many complete records fit in off bytes?
		want := 0
		for want < n && boundaries[want] <= int64(off) {
			want++
		}
		db2, _ := openTruncatedWAL(t, walBytes, off)
		for i := 0; i < n; i++ {
			got, err := db2.Get([]byte(fmt.Sprintf("k%02d", i)))
			if i < want {
				if err != nil || string(got) != fmt.Sprintf("value-%02d", i) {
					t.Fatalf("offset %d: record %d (intact prefix) lost: %q, %v", off, i, got, err)
				}
			} else if err != ErrNotFound {
				t.Fatalf("offset %d: record %d beyond tear resurfaced: %q, %v", off, i, got, err)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
	}
}

// TestWALTornBatchEveryOffset truncates a WAL holding a Put and then a
// five-entry Apply at every byte offset: the Put is back exactly when its
// record survived, and the batch is back whole or not at all.
func TestWALTornBatchEveryOffset(t *testing.T) {
	fsys := vfs.NewFault()
	db, err := Open(Options{Dir: tortureDir, FS: fsys, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("single"), []byte("value-single")); err != nil {
		t.Fatal(err)
	}
	putEnd := walSize(t, db)
	var b Batch
	var batchKeys []string
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("b%d", i)
		b.Put([]byte(k), []byte("value-"+k))
		batchKeys = append(batchKeys, k)
	}
	b.Delete([]byte("single"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	walBytes := closedWAL(t, fsys, db, walSize(t, db))

	for _, off := range truncations(len(walBytes)) {
		db2, _ := openTruncatedWAL(t, walBytes, off)
		present := 0
		for _, k := range batchKeys {
			got, err := db2.Get([]byte(k))
			switch {
			case err == nil && string(got) == "value-"+k:
				present++
			case err != ErrNotFound:
				t.Fatalf("offset %d: batch key %s = %q, %v", off, k, got, err)
			}
		}
		whole := int64(off) == int64(len(walBytes))
		if (whole && present != len(batchKeys)) || (!whole && present != 0) {
			t.Fatalf("offset %d of %d: %d of the batch's %d puts recovered, want all or none", off, len(walBytes), present, len(batchKeys))
		}
		// The batch deletes the single key, so it is present exactly when its
		// own record survived and the batch's did not.
		_, err := db2.Get([]byte("single"))
		if wantSingle := int64(off) >= putEnd && !whole; (err == nil) != wantSingle {
			t.Fatalf("offset %d: Get(single) = %v, want present=%v", off, err, wantSingle)
		}
		if err := db2.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
	}
}

// TestWALTornTailThenAckedWrite tears a synced WAL 3 bytes into its last
// record. Reopening must not change the file, and must not append after the
// tear either: a record acknowledged after that reopen survives a power loss
// and the next replay, instead of sitting behind the tear where replay stops.
func TestWALTornTailThenAckedWrite(t *testing.T) {
	fsys := vfs.NewFault()
	db, err := Open(Options{Dir: tortureDir, FS: fsys, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	intact := walSize(t, db)
	if err := db.Put([]byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	walBytes := closedWAL(t, fsys, db, walSize(t, db))

	torn := walBytes[:intact+3]
	db2, tfs := openTruncatedWAL(t, walBytes, len(torn))
	if got, err := vfs.ReadFile(tfs, filepath.Join(tortureDir, walName)); err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("Open changed the torn WAL: %q, %v; want %q", got, err, torn)
	}
	if err := db2.Put([]byte("c"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	tfs.Crash()
	_ = db2.Close() // its handles died with the power loss

	db3, err := Open(Options{Dir: tortureDir, FS: tfs, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	for _, kv := range []struct{ key, want string }{{"a", "1"}, {"b", ""}, {"c", "3"}} {
		got, err := db3.Get([]byte(kv.key))
		if kv.want == "" {
			if err != ErrNotFound {
				t.Fatalf("torn record %s resurfaced: %q, %v", kv.key, got, err)
			}
		} else if err != nil || string(got) != kv.want {
			t.Fatalf("acknowledged record %s after the crash: %q, %v; want %q", kv.key, got, err, kv.want)
		}
	}
}

// walSize is the size of db's WAL, read on the committer that owns it.
func walSize(t *testing.T, db *DB) int64 {
	t.Helper()
	var size int64
	if err := db.runOnCommitter(func() error {
		size = db.wal.size
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return size
}

// closedWAL closes db and returns its WAL's bytes, which must be size long.
func closedWAL(t *testing.T, fsys vfs.FS, db *DB, size int64) []byte {
	t.Helper()
	walBytes, err := vfs.ReadFile(fsys, filepath.Join(tortureDir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if int64(len(walBytes)) != size {
		t.Fatalf("wal size %d, want %d", len(walBytes), size)
	}
	return walBytes
}

// truncations lists the offsets to cut an n-byte WAL at: every one, or every
// seventh and the end under -short.
func truncations(n int) []int {
	var offsets []int
	step := 1
	if testing.Short() {
		step = 7
	}
	for off := 0; off <= n; off += step {
		offsets = append(offsets, off)
	}
	if offsets[len(offsets)-1] != n {
		offsets = append(offsets, n)
	}
	return offsets
}

// openTruncatedWAL opens a fresh store whose WAL is walBytes cut at off, on a
// filesystem of its own.
func openTruncatedWAL(t *testing.T, walBytes []byte, off int) (*DB, *vfs.FaultFS) {
	t.Helper()
	tfs := vfs.NewFault()
	if err := tfs.MkdirAll(tortureDir); err != nil {
		t.Fatal(err)
	}
	f, err := tfs.Create(filepath.Join(tortureDir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(walBytes[:off]); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tfs.SyncDir(tortureDir); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Dir: tortureDir, FS: tfs, SyncWrites: true})
	if err != nil {
		t.Fatalf("offset %d: reopen: %v", off, err)
	}
	return db, tfs
}

// The TABLES encoding, pinned byte for byte: a header line, then one live
// table number per line, newest first. A directory written before
// vfs.WriteFileAtomic took over the commit must open afterwards, and the
// reverse.
func TestTablesManifestGoldenBytes(t *testing.T) {
	fsys := vfs.NewFault()
	opts := Options{Dir: tortureDir, FS: fsys, CompactAt: -1}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tables := func(want string) {
		t.Helper()
		got, err := vfs.ReadFile(fsys, filepath.Join(tortureDir, tablesName))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("TABLES bytes = %q, want %q", got, want)
		}
	}
	tables("tables v1\n")
	for i, want := range []string{"tables v1\n1\n", "tables v1\n2\n1\n"} {
		if err := db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		tables(want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The reverse: hand-placed bytes are read back as the table order.
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(tortureDir, tablesName), []byte("tables v1\n2\n1\n")); err != nil {
		t.Fatal(err)
	}
	db, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen from golden TABLES: %v", err)
	}
	defer db.Close()
	if db.Tables() != 2 {
		t.Fatalf("reopened with %d tables, want 2", db.Tables())
	}
	for i := 0; i < 2; i++ {
		if v, err := db.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || string(v) != "v" {
			t.Fatalf("k%d after reopen: %q, %v", i, v, err)
		}
	}
}

// A directory holding a table but no TABLES manifest is refused by name,
// and the refusal deletes nothing.
func TestOpenRefusesTablesWithoutManifest(t *testing.T) {
	fsys := vfs.NewFault()
	opts := Options{Dir: tortureDir, FS: fsys, CompactAt: -1}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(filepath.Join(tortureDir, tablesName)); err != nil {
		t.Fatal(err)
	}
	before, err := fsys.List(tortureDir)
	if err != nil {
		t.Fatal(err)
	}

	db, err = Open(opts)
	if err == nil {
		_ = db.Close()
		t.Fatal("opened a directory with a table and no TABLES manifest")
	}
	table := filepath.Base(sstPath(tortureDir, 1))
	if !strings.Contains(err.Error(), tortureDir) || !strings.Contains(err.Error(), table) {
		t.Fatalf("refusal %q does not name the directory %s and the table %s", err, tortureDir, table)
	}
	after, err := fsys.List(tortureDir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused Open changed the directory: %v → %v", before, after)
	}
}
