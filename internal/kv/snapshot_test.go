package kv

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vfs"
)

// MVCC snapshot suite: the pinned-view contract under concurrency, the
// deferred-unlink reaper, the flushed memtable's release, and the cost of
// pinning a snapshot.

// snapKey encodes writer w's seq'th write; the zero padding keeps per-writer
// keys in write order under a byte-ordered scan.
func snapKey(w, seq int) string { return fmt.Sprintf("w%d-%08d", w, seq) }

// TestKVSnapshotWriterRace races writers against a reader that repeatedly
// pins snapshots, checking the two halves of the MVCC contract:
//
//   - Point-in-time: each writer writes seq 0,1,2,... strictly in order, so
//     any consistent view must show a contiguous prefix of its seqs. A torn
//     view (seq s visible while some s' < s is missing) means the snapshot
//     mixed states from two instants.
//   - Immutability: re-scanning the same snapshot while the writers keep
//     going (through flushes and background compactions, which the small
//     memtable forces) must reproduce byte-identical results.
//
// Run under -race this also proves readers share no unsynchronized state
// with the committer.
func TestKVSnapshotWriterRace(t *testing.T) {
	const writers = 4
	rounds := 120
	snapshots := 40
	if testing.Short() {
		rounds, snapshots = 40, 10
	}
	fsys := vfs.NewFault()
	db, err := Open(concurrentTortureOpts(fsys)) // small memtable: flushes + compactions mid-race
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < rounds; seq++ {
				v := fmt.Sprintf("%08d", seq)
				if err := db.Put([]byte(snapKey(w, seq)), []byte(v)); err != nil {
					t.Errorf("writer %d seq %d: %v", w, seq, err)
					return
				}
			}
		}(w)
	}

	scanAll := func(snap *Snapshot) ([]string, []string) {
		var keys, vals []string
		it := snap.Scan(nil, nil)
		defer it.Close()
		for it.Next() {
			keys = append(keys, string(it.Key()))
			vals = append(vals, string(it.Value()))
		}
		if err := it.Err(); err != nil {
			t.Fatalf("snapshot scan: %v", err)
		}
		return keys, vals
	}

	for i := 0; i < snapshots; i++ {
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		keys, vals := scanAll(snap)

		// Prefix-closure oracle: per writer, the visible seqs must be exactly
		// 0..n-1. The scan is byte-ordered and keys are zero-padded, so each
		// writer's seqs arrive ascending.
		next := make([]int, writers)
		for j, k := range keys {
			var w, seq int
			if _, err := fmt.Sscanf(k, "w%d-%d", &w, &seq); err != nil || w < 0 || w >= writers {
				t.Fatalf("snapshot %d: foreign key %q", i, k)
			}
			if seq != next[w] {
				t.Fatalf("snapshot %d: writer %d shows seq %d after prefix 0..%d — torn view",
					i, w, seq, next[w]-1)
			}
			if want := fmt.Sprintf("%08d", seq); vals[j] != want {
				t.Fatalf("snapshot %d: %s = %q, want %q", i, k, vals[j], want)
			}
			next[w]++
		}

		// Immutability: the same snapshot re-scanned gives identical results,
		// however far the writers have moved on.
		keys2, vals2 := scanAll(snap)
		if len(keys2) != len(keys) {
			t.Fatalf("snapshot %d: re-scan returned %d rows, first scan %d", i, len(keys2), len(keys))
		}
		for j := range keys {
			if keys[j] != keys2[j] || vals[j] != vals2[j] {
				t.Fatalf("snapshot %d: re-scan diverges at row %d: %s=%s vs %s=%s",
					i, j, keys[j], vals[j], keys2[j], vals2[j])
			}
		}
		if err := snap.Close(); err != nil {
			t.Fatalf("snapshot %d close: %v", i, err)
		}
	}
	wg.Wait()

	// The race must have exercised the machinery the snapshots claim to be
	// immune to, or the test is vacuous. A compaction a flush scheduled may
	// still be running; Flush returns once the compactor is idle.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("stats %+v: race saw no flush or no compaction; shrink MemtableBytes/CompactAt", st)
	}
	if st.PinnedSnapshots != 0 {
		t.Fatalf("PinnedSnapshots = %d after all closes, want 0", st.PinnedSnapshots)
	}
}

// sstNames lists the .sst files currently in dir.
func sstNames(t *testing.T, fsys vfs.FS, dir string) map[string]bool {
	t.Helper()
	names, err := fsys.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, n := range names {
		if strings.HasSuffix(n, sstSuffix) {
			out[n] = true
		}
	}
	return out
}

// TestKVSnapshotDefersTableUnlink pins a snapshot across a full compaction
// and holds the reaper to its contract: the compacted-away victims stay on
// disk (and on the ObsoleteTables gauge) while the snapshot lives, serve its
// reads bit-for-bit, and vanish — files unlinked, gauge drained to zero — the
// moment the last reference releases.
func TestKVSnapshotDefersTableUnlink(t *testing.T) {
	fsys := vfs.NewFault()
	opts := Options{Dir: tortureDir, FS: fsys, SyncWrites: true, CompactAt: -1}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for round := 0; round < 2; round++ { // two tables so the merge has victims
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("k%02d", i)
			v := fmt.Sprintf("r%d-%02d", round, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	victims := sstNames(t, fsys, tortureDir)
	if len(victims) != 2 {
		t.Fatalf("setup produced %d tables, want 2", len(victims))
	}

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	st := db.Stats()
	if st.ObsoleteTables != int64(len(victims)) {
		t.Fatalf("ObsoleteTables = %d with snapshot pinned, want %d", st.ObsoleteTables, len(victims))
	}
	after := sstNames(t, fsys, tortureDir)
	for name := range victims {
		if !after[name] {
			t.Fatalf("victim %s unlinked while a snapshot still references it", name)
		}
	}
	if len(after) != len(victims)+1 {
		t.Fatalf("%d tables on disk post-compaction, want victims + 1 merged", len(after))
	}
	// The pinned view still reads through the victims it holds.
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, err := snap.Get([]byte(k))
		if err != nil {
			t.Fatalf("snapshot read of %s post-compaction: %v", k, err)
		}
		if want := fmt.Sprintf("r1-%02d", i); string(v) != want {
			t.Fatalf("snapshot read %s = %q, want %q", k, v, want)
		}
	}

	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	st = db.Stats()
	if st.ObsoleteTables != 0 {
		t.Fatalf("ObsoleteTables = %d after last release, want 0 (reaper did not drain)", st.ObsoleteTables)
	}
	final := sstNames(t, fsys, tortureDir)
	for name := range victims {
		if final[name] {
			t.Fatalf("victim %s still on disk after the last reference released", name)
		}
	}
	if len(final) != 1 {
		t.Fatalf("%d tables on disk after reap, want 1", len(final))
	}
}

// benchSink keeps the compiler from eliding the benchmarked copies.
var benchSink int

// benchPreloadedDB opens a store whose memtable holds n entries and will
// neither flush nor compact, isolating snapshot acquisition.
func benchPreloadedDB(b *testing.B, n int) *DB {
	b.Helper()
	fsys := vfs.NewFault()
	db, err := Open(Options{
		Dir:           tortureDir,
		FS:            fsys,
		MemtableBytes: 256 << 20,
		CompactAt:     -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	val := []byte(strings.Repeat("v", 64))
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkSnapshotAcquire measures the MVCC pin: Snapshot freezes the
// active memtable once (an O(1) pointer move) and every later acquisition is
// a handful of pointer copies and refcount bumps under db.mu — independent
// of how much data the store holds, so the three sizes should time alike.
func BenchmarkSnapshotAcquire(b *testing.B) {
	for _, n := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			db := benchPreloadedDB(b, n)
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := db.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				benchSink = len(snap.mems)
				_ = snap.Close()
			}
		})
	}
}

// TestFlushedMemtableIsCollectable holds flush to dropping what it flushed:
// once a memtable's records are in a table, nothing the store keeps may
// reach the memtable, whether flush froze it or a snapshot did.
func TestFlushedMemtableIsCollectable(t *testing.T) {
	for _, freeze := range []string{"flush", "snapshot"} {
		t.Run(freeze, func(t *testing.T) {
			db := newTestDB(t, Options{CompactAt: -1})
			if err := db.Put([]byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			collected := make(chan struct{})
			db.mu.Lock()
			runtime.SetFinalizer(db.mem, func(*skiplist) { close(collected) })
			db.mu.Unlock()
			if freeze == "snapshot" {
				snap, err := db.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := snap.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
			t.Fatal("the flushed memtable is still reachable from the store")
		})
	}
}
