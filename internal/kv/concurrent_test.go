package kv

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// Concurrent-writer torture: N goroutines race through the group-commit
// pipeline while a fault or crash is injected at a sampled filesystem
// operation — mid-group-commit, mid-flush, or mid-background-compaction,
// whichever the interleaving lands on. Unlike the single-writer suite the op
// numbering is not deterministic across runs (two goroutines race to the
// committer queue), so points are sampled uniformly over the op range rather
// than enumerated per kind; the acked-writes check is interleaving-agnostic.
//
// Each writer owns a disjoint key space and its own vfstest.Model (the model
// is single-writer), so after reopening, every writer's acknowledged writes
// must be present and anything else must be a legal in-flight value.

const (
	concWriters = 4
	concRounds  = 90
)

func concurrentTortureOpts(fsys vfs.FS) Options {
	return Options{
		Dir:           tortureDir,
		FS:            fsys,
		SyncWrites:    true,
		MemtableBytes: 2 << 10, // force flushes mid-run
		CompactAt:     3,       // and background compactions
	}
}

func concKey(w, i int) string { return fmt.Sprintf("w%d-k%03d", w, i) }

// concOwner maps a stored key back to the writer whose model governs it.
func concOwner(key string) (int, bool) {
	if !strings.HasPrefix(key, "w") {
		return 0, false
	}
	rest := strings.TrimPrefix(key, "w")
	dash := strings.IndexByte(rest, '-')
	if dash < 0 {
		return 0, false
	}
	w, err := strconv.Atoi(rest[:dash])
	if err != nil || w < 0 || w >= concWriters {
		return 0, false
	}
	return w, true
}

// runConcurrentWorkload races concWriters goroutines over disjoint key
// spaces, recording every acknowledgement in per-writer models. Writers do
// not stop on errors — a store that healed (or kept running degraded) after
// a fault must keep honoring acknowledgements, and the models hold it to
// that.
func runConcurrentWorkload(db *DB) []*vfstest.Model {
	models := make([]*vfstest.Model, concWriters)
	var wg sync.WaitGroup
	for w := 0; w < concWriters; w++ {
		models[w] = vfstest.NewModel()
		wg.Add(1)
		go func(w int, m *vfstest.Model) {
			defer wg.Done()
			for r := 0; r < concRounds; r++ {
				k := concKey(w, r%17)
				if r%11 == 7 {
					err := db.Delete([]byte(k))
					m.Delete(k, err == nil)
					continue
				}
				v := fmt.Sprintf("w%d-v%03d-%s", w, r, strings.Repeat("x", 24))
				err := db.Put([]byte(k), []byte(v))
				m.Put(k, v, err == nil)
			}
		}(w, models[w])
	}
	wg.Wait()
	return models
}

// countConcurrentOps sizes the op range with a fault-free run and asserts the
// workload actually exercises the machinery under test: grouped commits,
// flushes, and at least one completed background compaction.
func countConcurrentOps(t *testing.T) int {
	t.Helper()
	fsys := vfs.NewFault()
	db, err := Open(concurrentTortureOpts(fsys))
	if err != nil {
		t.Fatalf("baseline open: %v", err)
	}
	runConcurrentWorkload(db)
	if err := db.Flush(); err != nil { // waits for the compactor to go idle
		t.Fatalf("baseline flush: %v", err)
	}
	snap := db.Stats()
	if snap.GroupCommits == 0 || snap.Flushes == 0 {
		t.Fatalf("baseline stats %+v: workload exercised no commits or flushes", snap)
	}
	if snap.Compactions == 0 {
		t.Fatalf("baseline ran no background compaction; shrink MemtableBytes/CompactAt")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("baseline close: %v", err)
	}
	ops := fsys.Ops()
	if ops < 100 {
		t.Fatalf("baseline produced only %d ops; workload too small", ops)
	}
	return ops
}

// concSamplePoints spreads sample fault points over the baseline op range.
// The injected run's interleaving differs from the baseline's, so a point is
// "somewhere inside the concurrent run", which is exactly the coverage a
// nondeterministic schedule allows — and the model check is valid wherever
// it lands.
func concSamplePoints(t *testing.T, total int) []int {
	t.Helper()
	samples := 48
	if testing.Short() {
		samples = 12
	}
	points := make([]int, 0, samples)
	for i := 0; i < samples; i++ {
		points = append(points, 1+i*total/samples)
	}
	return points
}

// checkConcurrentRecovered reopens with injection disarmed and verifies the
// store against every writer's model.
func checkConcurrentRecovered(t *testing.T, fsys *vfs.FaultFS, models []*vfstest.Model, point int) {
	t.Helper()
	fsys.SetInject(nil)
	db, err := Open(concurrentTortureOpts(fsys))
	if err != nil {
		t.Fatalf("fault point %d: reopen: %v", point, err)
	}
	defer db.Close()
	if err := db.Verify(); err != nil {
		t.Fatalf("fault point %d: Verify: %v", point, err)
	}
	get := func(key string) (string, bool, error) {
		v, err := db.Get([]byte(key))
		if err == ErrNotFound {
			return "", false, nil
		}
		if err != nil {
			return "", false, err
		}
		return string(v), true, nil
	}
	for w, m := range models {
		if err := m.CheckAll(get); err != nil {
			t.Fatalf("fault point %d: writer %d: %v", point, w, err)
		}
	}
	// Nothing outside the writers' key spaces may appear, and every surfaced
	// value must be legal for its owner's model.
	it := db.Scan(nil, nil)
	defer it.Close()
	for it.Next() {
		key := string(it.Key())
		w, ok := concOwner(key)
		if !ok || w >= len(models) {
			t.Fatalf("fault point %d: scan surfaced foreign key %q", point, key)
		}
		if err := models[w].Check(key, string(it.Value()), true); err != nil {
			t.Fatalf("fault point %d: scan: %v", point, err)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatalf("fault point %d: scan: %v", point, err)
	}
}

func runConcurrentTorture(t *testing.T, kind vfs.Fault, points []int) {
	t.Helper()
	for _, p := range points {
		point := p
		fsys := vfs.NewFault()
		fsys.SetInject(func(op vfs.Op) vfs.Fault {
			if op.N == point {
				return kind
			}
			return vfs.FaultNone
		})
		var models []*vfstest.Model
		db, err := Open(concurrentTortureOpts(fsys))
		if err == nil {
			models = runConcurrentWorkload(db)
			// The "process" exits before the power does: joins the committer
			// and compactor, may fail on a poisoned or crashed WAL.
			_ = db.Close()
		} else if kind == vfs.FaultCrash && !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("fault point %d: open failed non-crash: %v", point, err)
		}
		fsys.Crash()
		checkConcurrentRecovered(t, fsys, models, point)
	}
}

// TestKVConcurrentCrashTorture pulls the power at a sampled operation while
// the writers race; recovery must honor every acknowledgement.
func TestKVConcurrentCrashTorture(t *testing.T) {
	points := concSamplePoints(t, countConcurrentOps(t))
	runConcurrentTorture(t, vfs.FaultCrash, points)
}

// TestKVConcurrentErrorTorture injects each failure flavor at a sampled
// operation; the racing writers carry on best-effort (healing the WAL,
// degrading compaction), then the power fails.
func TestKVConcurrentErrorTorture(t *testing.T) {
	points := concSamplePoints(t, countConcurrentOps(t))
	for _, kind := range []vfs.Fault{vfs.FaultErr, vfs.FaultTorn, vfs.FaultDiskFull} {
		kind := kind
		t.Run(fmt.Sprintf("fault%d", int(kind)), func(t *testing.T) {
			runConcurrentTorture(t, kind, points)
		})
	}
}

// TestKVConcurrentCloseRace closes the store while writers are mid-commit:
// every writer must get exactly one answer per write — a real result for
// groups that committed, ErrClosed for requests drained behind the shutdown —
// and every acknowledgement must survive reopening. A hang here (lost waiter)
// fails via the test timeout.
func TestKVConcurrentCloseRace(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		fsys := vfs.NewFault()
		db, err := Open(concurrentTortureOpts(fsys))
		if err != nil {
			t.Fatal(err)
		}
		models := make([]*vfstest.Model, concWriters)
		started := make([]chan struct{}, concWriters)
		var wg sync.WaitGroup
		for w := 0; w < concWriters; w++ {
			models[w] = vfstest.NewModel()
			started[w] = make(chan struct{})
			wg.Add(1)
			go func(w int, m *vfstest.Model, started chan struct{}) {
				defer wg.Done()
				for r := 0; ; r++ {
					k := concKey(w, r%17)
					v := fmt.Sprintf("w%d-v%03d", w, r)
					err := db.Put([]byte(k), []byte(v))
					if errors.Is(err, ErrClosed) {
						// Not acknowledged; the model must allow either
						// outcome for an in-flight-at-close write.
						m.Put(k, v, false)
						return
					}
					if err != nil {
						t.Errorf("trial %d writer %d: %v", trial, w, err)
						return
					}
					m.Put(k, v, true)
					if r == 10 {
						close(started)
					}
				}
			}(w, models[w], started[w])
		}
		for _, ch := range started {
			<-ch
		}
		if err := db.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
		wg.Wait()
		fsys.Crash()
		checkConcurrentRecovered(t, fsys, models, -trial)
	}
}

// queueBehindGate holds the committer's drain gate, starts n concurrent Puts
// of keys group-0..group-(n-1) and returns once all n are queued. The returned
// commit releases exactly one drain — so the n puts form one commit group —
// waits for every answer, clears the gate and returns the puts' errors.
func queueBehindGate(db *DB, n int) (commit func() []error) {
	gate := make(chan struct{})
	db.commit.setGate(gate)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = db.Put([]byte(fmt.Sprintf("group-%d", i)), []byte("v"))
		}(i)
	}
	for db.commit.pendingLen() < n {
		runtime.Gosched()
	}
	return func() []error {
		gate <- struct{}{}
		wg.Wait()
		db.commit.setGate(nil)
		return errs
	}
}

// TestWALPoisonFanout holds the committer's drain gate so a known set of
// writers lands in one commit group, fails that group's fsync, and asserts
// the poison semantics end to end: every waiter in the group gets the same
// error, the WAL stays poisoned only until the next write heals it by
// flush + rotation, and after a crash the model shows zero lost
// acknowledgements.
func TestWALPoisonFanout(t *testing.T) {
	fsys := vfs.NewFault()
	opts := concurrentTortureOpts(fsys)
	opts.MemtableBytes = 1 << 20 // no auto-flush: the heal must do the rotation
	opts.CompactAt = -1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := vfstest.NewModel()
	put := func(k, v string) error {
		err := db.Put([]byte(k), []byte(v))
		model.Put(k, v, err == nil)
		return err
	}
	if err := put("seed", "durable"); err != nil {
		t.Fatal(err)
	}

	// Hold the committer and queue one group of K concurrent writes. The
	// model isn't concurrent-safe; acknowledgements are recorded from the
	// returned errors after the group resolves.
	const K = 5
	commit := queueBehindGate(db, K)

	// Fail the group's single fsync (the WAL's next sync only — healing and
	// later commits must succeed).
	armed := true
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if armed && op.Kind == vfs.OpSync && strings.HasSuffix(op.Path, walName) {
			armed = false
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})
	errs := commit()

	for i := range errs {
		model.Put(fmt.Sprintf("group-%d", i), "v", errs[i] == nil)
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("writer %d in the failed group was acknowledged", i)
		}
		if err != errs[0] {
			t.Fatalf("writer %d got a different error (%v) than the group's (%v)", i, err, errs[0])
		}
	}
	var inj *vfs.InjectedError
	if !errors.As(errs[0], &inj) {
		t.Fatalf("group error = %v, want the injected fault", errs[0])
	}

	// The next write heals by flush + rotation and must be acknowledged.
	if err := put("after-heal", "alive"); err != nil {
		t.Fatalf("write after heal: %v", err)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	fsys.Crash()
	fsys.SetInject(nil)
	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	err = model.CheckAll(func(key string) (string, bool, error) {
		v, err := db2.Get([]byte(key))
		if err == ErrNotFound {
			return "", false, nil
		}
		if err != nil {
			return "", false, err
		}
		return string(v), true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gatedSyncDB opens a synced store that never flushes or compacts on its own,
// so the only wal.log fsyncs are the committer's and no read touches a table.
func gatedSyncDB(t *testing.T) (*DB, *vfs.FaultFS) {
	t.Helper()
	fsys := vfs.NewFault()
	db, err := Open(Options{Dir: tortureDir, FS: fsys, SyncWrites: true, MemtableBytes: 64 << 20, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	return db, fsys
}

// TestConcurrentPutsShareOneFsync is the group-commit contract as counts: N
// synced Puts queued behind a held drain gate commit as ONE group and pay for
// exactly ONE wal.log fsync between them. The fsync count is the
// filesystem's, not the store's, so a store that synced per request (or lied
// in its stats) fails here.
func TestConcurrentPutsShareOneFsync(t *testing.T) {
	db, fsys := gatedSyncDB(t)
	defer db.Close()
	walPath := filepath.Join(tortureDir, walName)

	const N = 8
	commit := queueBehindGate(db, N)
	before, syncsBefore := db.Stats(), fsys.SyncCalls(walPath)

	for i, err := range commit() {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	after := db.Stats()
	if got := fsys.SyncCalls(walPath) - syncsBefore; got != 1 {
		t.Fatalf("%d queued puts cost %d wal.log fsyncs, want exactly 1", N, got)
	}
	if groups, puts, syncs := after.GroupCommits-before.GroupCommits, after.Puts-before.Puts, after.WALSyncs-before.WALSyncs; groups != 1 || puts != N || syncs != 1 {
		t.Fatalf("stats: %d groups, %d puts, %d wal syncs; want 1, %d, 1", groups, puts, syncs, N)
	}
	for i := 0; i < N; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("group-%d", i))); err != nil {
			t.Fatalf("acknowledged group-%d unreadable: %v", i, err)
		}
	}
}

// TestConcurrentReadsDuringWALFsync is the reader/committer decoupling
// contract as ordering: with the committer parked INSIDE a wal.log fsync, a
// Get of a memtable-resident key and a Snapshot acquisition both return, and
// both observe the pre-commit state — the in-flight write is neither
// acknowledged nor visible until the fsync is released. A committer that held
// db.mu across the sync would leave both reads blocked; the watchdog below
// exists only to turn that deadlock into a failure, not to bound latency.
func TestConcurrentReadsDuringWALFsync(t *testing.T) {
	db, fsys := gatedSyncDB(t)
	defer db.Close()
	if err := db.Put([]byte("resident"), []byte("v0")); err != nil {
		t.Fatal(err)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	armed := true // touched only under the filesystem lock the hook runs in
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if armed && op.Kind == vfs.OpSync && strings.HasSuffix(op.Path, walName) {
			armed = false
			close(parked)
			<-release
		}
		return vfs.FaultNone
	})
	var acked atomic.Bool
	putDone := make(chan error, 1)
	go func() {
		err := db.Put([]byte("inflight"), []byte("v1"))
		acked.Store(true)
		putDone <- err
	}()
	<-parked

	type view struct {
		resident    []byte
		residentErr error
		inflightErr error
		snap        *Snapshot
		snapErr     error
	}
	reads := make(chan view, 1)
	go func() {
		var v view
		v.resident, v.residentErr = db.Get([]byte("resident"))
		_, v.inflightErr = db.Get([]byte("inflight"))
		v.snap, v.snapErr = db.Snapshot()
		reads <- v
	}()
	var v view
	select {
	case v = <-reads:
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("Get/Snapshot did not return while the committer was parked in a WAL fsync: readers wait on the write path")
	}
	if acked.Load() {
		t.Fatal("in-flight put was acknowledged before its fsync returned")
	}
	if v.residentErr != nil || string(v.resident) != "v0" {
		t.Fatalf("Get(resident) during fsync = %q, %v", v.resident, v.residentErr)
	}
	if v.inflightErr != ErrNotFound {
		t.Fatalf("Get(inflight) during fsync: err = %v, want ErrNotFound (not yet durable, so not yet visible)", v.inflightErr)
	}
	if v.snapErr != nil {
		t.Fatalf("Snapshot during fsync: %v", v.snapErr)
	}
	defer v.snap.Close()

	close(release)
	if err := <-putDone; err != nil {
		t.Fatalf("in-flight put: %v", err)
	}
	if got, err := db.Get([]byte("inflight")); err != nil || string(got) != "v1" {
		t.Fatalf("Get(inflight) after ack = %q, %v", got, err)
	}
	if got, err := v.snap.Get([]byte("resident")); err != nil || string(got) != "v0" {
		t.Fatalf("snapshot Get(resident) = %q, %v", got, err)
	}
	if _, err := v.snap.Get([]byte("inflight")); err != ErrNotFound {
		t.Fatalf("snapshot taken mid-fsync sees the later commit: err = %v", err)
	}
}

// BenchmarkGroupCommit measures fsync amortization under concurrent synced
// writers: with W writers racing, consecutive requests coalesce into one
// commit group and share a single WAL fsync, so fsyncs/op should fall well
// below 1 as W grows. The fault hook adds a small sleep to every sync,
// mimicking a real device's fsync latency — without it the committer drains
// the queue faster than writers can pile up and groups stay small.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			fsys := vfs.NewFault()
			fsys.SetInject(func(op vfs.Op) vfs.Fault {
				if op.Kind == vfs.OpSync {
					time.Sleep(50 * time.Microsecond)
				}
				return vfs.FaultNone
			})
			db, err := Open(Options{
				Dir:           tortureDir,
				FS:            fsys,
				SyncWrites:    true,
				MemtableBytes: 64 << 20, // no flushes: isolate the commit path
				CompactAt:     -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					val := []byte(strings.Repeat("v", 64))
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if err := db.Put([]byte(fmt.Sprintf("w%d-%08d", w, i)), val); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			snap := db.Stats()
			if snap.Puts > 0 {
				b.ReportMetric(float64(snap.WALSyncs)/float64(snap.Puts), "fsyncs/op")
				b.ReportMetric(float64(snap.Puts)/float64(snap.GroupCommits), "ops/group")
			}
		})
	}
}

// TestReopenHonorsManifestOrder pins the recovery-ordering contract the
// background compactor depends on: the TABLES manifest's line order — not the
// tables' sequence numbers — ranks recency. A merge that snapshots its victims
// after a concurrent flush allocated its number produces exactly this shape
// (merged output with a higher seq than a newer flush), and a reopen that
// sorted by seq would let the merged table's old versions shadow acknowledged
// writes.
func TestReopenHonorsManifestOrder(t *testing.T) {
	fsys := vfs.NewFault()
	opts := Options{Dir: tortureDir, FS: fsys, SyncWrites: true, CompactAt: -1}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("a"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil { // table 1: a=old
		t.Fatal(err)
	}
	if err := db.Put([]byte("a"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil { // table 2: a=new
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Renumber so the newer data sits under the LOWER seq (3 < 4), and write a
	// manifest whose order says so. This is the on-disk shape a crash can leave
	// when a flush outruns a concurrently-snapshotted merge.
	rename := func(from, to uint64) {
		t.Helper()
		if err := fsys.Rename(sstPath(tortureDir, from), sstPath(tortureDir, to)); err != nil {
			t.Fatal(err)
		}
	}
	rename(1, 4) // old value → seq 4
	rename(2, 3) // new value → seq 3
	manifest := filepath.Join(tortureDir, "TABLES")
	f, err := fsys.Create(manifest + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("tables v1\n3\n4\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(manifest+".tmp", manifest); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(tortureDir); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Get([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("reopen ranked tables by seq, not manifest order: a = %q, want %q", got, "new")
	}
}

// TestCompactionDegradedHealth exercises the compaction supervisor's
// failure handling: a permanent fault fails the round and raises
// CompactDegraded at once while writes keep flowing; the next clean round
// clears it.
func TestCompactionDegradedHealth(t *testing.T) {
	fsys := vfs.NewFault()
	opts := Options{
		Dir:           tortureDir,
		FS:            fsys,
		MemtableBytes: 1 << 20,
		CompactAt:     -1, // only explicit Compact calls
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// A permanent fault: the round fails, health degrades, writers don't
	// wedge.
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpCreate && strings.Contains(op.Path, sstSuffix) {
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})
	if err := db.Compact(); err == nil {
		t.Fatal("compaction succeeded through a permanent create fault")
	}
	snap := db.Stats()
	if !snap.CompactDegraded {
		t.Fatal("CompactDegraded not set after a failed round")
	}
	if snap.CompactFailures != 1 {
		t.Fatalf("CompactFailures = %d after one failed round, want 1", snap.CompactFailures)
	}
	if err := db.Put([]byte("degraded-write"), []byte("still-works")); err != nil {
		t.Fatalf("write while degraded: %v", err)
	}
	if v, err := db.Get([]byte("degraded-write")); err != nil || string(v) != "still-works" {
		t.Fatalf("read while degraded: %q, %v", v, err)
	}

	// Disk healed: the next round succeeds and clears the flag.
	fsys.SetInject(nil)
	if err := db.Compact(); err != nil {
		t.Fatalf("compaction after healing: %v", err)
	}
	if snap = db.Stats(); snap.CompactDegraded {
		t.Fatal("CompactDegraded still set after a clean round")
	}
	if got := db.Tables(); got != 1 {
		t.Fatalf("tables = %d after full compaction, want 1", got)
	}
}

// TestFlushManifestFailureKeepsWAL pins flush's commit-point ordering: the
// manifest must list a flushed table before the memtable is swapped or the
// table enters the in-memory set. With the reverse order, a failed manifest
// commit left an empty memtable, and the next WAL heal would rotate away the
// log — the only *committed* copy of those records, since the flushed table
// file was never listed. After the next power loss the unlisted table is
// deleted as stale and every acknowledged record in it is gone. The
// concurrent crash torture found this; this test reproduces it
// deterministically.
func TestFlushManifestFailureKeepsWAL(t *testing.T) {
	fsys := vfs.NewFault()
	opts := Options{Dir: tortureDir, FS: fsys, SyncWrites: true, CompactAt: -1}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Fail the manifest commit of the next flush (table file already
	// durable), exactly once.
	var armed atomic.Bool
	armed.Store(true)
	manifestTmp := filepath.Join(tortureDir, tablesName+tmpSuffix)
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpWrite && op.Path == manifestTmp && armed.CompareAndSwap(true, false) {
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})
	if err := db.Flush(); err == nil {
		t.Fatal("flush succeeded despite failed manifest commit")
	}
	if v, err := db.Get([]byte("k1")); err != nil || string(v) != "v1" {
		t.Fatalf("after failed flush: Get(k1) = %q, %v", v, err)
	}

	// Poison the WAL (fail its next sync), then write through the heal. The
	// heal must re-flush the intact memtable — not rotate an "empty" one.
	armed.Store(true)
	walPath := filepath.Join(tortureDir, walName)
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpSync && op.Path == walPath && armed.CompareAndSwap(true, false) {
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})
	if err := db.Put([]byte("k2"), []byte("v2")); err == nil {
		t.Fatal("put succeeded despite WAL sync failure")
	}
	fsys.SetInject(nil)
	if err := db.Put([]byte("k3"), []byte("v3")); err != nil {
		t.Fatalf("put after heal: %v", err)
	}

	// Power loss. Every acknowledged record must survive.
	_ = db.Close()
	fsys.Crash()
	db2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if v, err := db2.Get([]byte("k1")); err != nil || string(v) != "v1" {
		t.Fatalf("recovered Get(k1) = %q, %v (acknowledged write lost)", v, err)
	}
	if v, err := db2.Get([]byte("k3")); err != nil || string(v) != "v3" {
		t.Fatalf("recovered Get(k3) = %q, %v (acknowledged write lost)", v, err)
	}
	// k2 was never acknowledged: either absent or fully present is legal.
	if v, err := db2.Get([]byte("k2")); err != nil && err != ErrNotFound {
		t.Fatalf("recovered Get(k2): %v", err)
	} else if err == nil && string(v) != "v2" {
		t.Fatalf("recovered Get(k2) = %q: neither v2 nor absent", v)
	}
}
