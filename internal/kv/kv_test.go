package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/vfs"
)

func newTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// scanDB returns an iterator over [start, end) of db as it is now; nil bounds
// are open. It is a one-range ScanRanges on a snapshot closed at once: the
// iterator holds its own table references.
func scanDB(db *DB, start, end []byte) Iterator {
	snap, err := db.Snapshot()
	if err != nil {
		return &errIter{err: err}
	}
	defer snap.Close()
	return snap.ScanRanges([]Range{{Start: start, End: end}})
}

func TestPutGet(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("alpha"))
	if err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := db.Get([]byte("beta")); err != ErrNotFound {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
}

func TestPutOverwrite(t *testing.T) {
	db := newTestDB(t, Options{})
	db.Put([]byte("k"), []byte("v1"))
	db.Put([]byte("k"), []byte("v2"))
	got, err := db.Get([]byte("k"))
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t, Options{})
	db.Put([]byte("k"), []byte("v"))
	if err := db.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
	// Delete survives a flush.
	db.Put([]byte("other"), []byte("x"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("deleted key after flush: %v", err)
	}
}

func TestDeleteShadowsFlushedValue(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	db.Put([]byte("k"), []byte("old"))
	db.Flush()
	db.Delete([]byte("k"))
	db.Flush()
	if _, err := db.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("tombstone in newer table must shadow older value: %v", err)
	}
	it := scanDB(db, nil, nil)
	defer it.Close()
	for it.Next() {
		if string(it.Key()) == "k" {
			t.Fatal("scan surfaced a deleted key")
		}
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key must be rejected")
	}
}

func TestScanRange(t *testing.T) {
	db := newTestDB(t, Options{})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%d", i)))
	}
	it := scanDB(db, []byte("key010"), []byte("key020"))
	defer it.Close()
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != 10 || got[0] != "key010" || got[9] != "key019" {
		t.Fatalf("scan got %v", got)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("scan out of order")
	}
}

func TestScanAcrossMemtableAndTables(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	// Interleave keys between two flushed tables and the memtable.
	for i := 0; i < 90; i += 3 {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("t1"))
	}
	db.Flush()
	for i := 1; i < 90; i += 3 {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("t2"))
	}
	db.Flush()
	for i := 2; i < 90; i += 3 {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("mem"))
	}
	it := scanDB(db, nil, nil)
	defer it.Close()
	count := 0
	prev := ""
	for it.Next() {
		k := string(it.Key())
		if prev != "" && k <= prev {
			t.Fatalf("out of order: %q after %q", k, prev)
		}
		prev = k
		count++
	}
	if count != 90 {
		t.Fatalf("scan saw %d keys, want 90", count)
	}
}

func TestNewestVersionWinsAcrossTables(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	db.Put([]byte("k"), []byte("v1"))
	db.Flush()
	db.Put([]byte("k"), []byte("v2"))
	db.Flush()
	db.Put([]byte("k"), []byte("v3")) // memtable
	got, err := db.Get([]byte("k"))
	if err != nil || string(got) != "v3" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	it := scanDB(db, nil, nil)
	defer it.Close()
	n := 0
	for it.Next() {
		n++
		if string(it.Value()) != "v3" {
			t.Fatalf("scan value %q, want v3", it.Value())
		}
	}
	if n != 1 {
		t.Fatalf("scan surfaced %d versions", n)
	}
}

func TestFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Dir: dir})
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := newTestDB(t, Options{Dir: dir})
	for i := 0; i < 50; i++ {
		got, err := db2.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after reopen, k%02d = %q, %v", i, got, err)
		}
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Dir: dir})
	db.Put([]byte("durable"), []byte("yes"))
	// Flush the WAL buffer to disk without flushing the memtable, then
	// simulate a crash by reopening without Close.
	if err := db.runOnCommitter(func() error { return db.wal.flush() }); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Get([]byte("durable"))
	if err != nil || string(got) != "yes" {
		t.Fatalf("after crash recovery: %q, %v", got, err)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Dir: dir})
	db.Put([]byte("a"), []byte("1"))
	db.Put([]byte("b"), []byte("2"))
	if err := db.runOnCommitter(func() error { return db.wal.flush() }); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Corrupt the tail of the WAL: the intact prefix must still replay.
	walPath := filepath.Join(dir, walName)
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, buf[:len(buf)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got, err := db2.Get([]byte("a")); err != nil || string(got) != "1" {
		t.Fatalf("intact record lost: %q, %v", got, err)
	}
	// The torn record is gone, silently.
	if _, err := db2.Get([]byte("b")); err != ErrNotFound {
		t.Fatalf("torn record must be dropped, got %v", err)
	}
}

func TestAutoFlushOnMemtableSize(t *testing.T) {
	db := newTestDB(t, Options{MemtableBytes: 4 << 10, CompactAt: -1})
	val := bytes.Repeat([]byte("x"), 128)
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), val)
	}
	if db.Stats().Flushes == 0 {
		t.Fatal("expected automatic flushes")
	}
	if db.Tables() == 0 {
		t.Fatal("expected SSTables on disk")
	}
	// All data still visible.
	for i := 0; i < 200; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatalf("k%04d lost: %v", i, err)
		}
	}
}

// A write that finds the memtable full flushes it first; when that flush
// fails, the write fails and is not applied, so an error always means the
// write is absent from the live store.
func TestFailedFlushLeavesWriteUnapplied(t *testing.T) {
	fsys := vfs.NewFault()
	db, err := Open(Options{Dir: tortureDir, FS: fsys, MemtableBytes: 1 << 10, CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("x"), 2<<10)
	if err := db.Put([]byte("k1"), val); err != nil {
		t.Fatal(err)
	}
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpCreate && strings.HasSuffix(op.Path, sstSuffix+tmpSuffix) {
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})
	if err := db.Put([]byte("k2"), val); err == nil {
		t.Fatal("put succeeded although the flush before it failed")
	}
	fsys.SetInject(nil)
	if _, err := db.Get([]byte("k2")); err != ErrNotFound {
		t.Fatalf("failed put is visible: Get(k2) = %v", err)
	}
	if _, err := db.Get([]byte("k1")); err != nil {
		t.Fatalf("Get(k1) = %v", err)
	}
	if err := db.Put([]byte("k3"), val); err != nil {
		t.Fatalf("put after the flush recovers: %v", err)
	}
}

func TestCompactionMergesTables(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("r%d", round)))
		}
		db.Flush()
	}
	if db.Tables() != 5 {
		t.Fatalf("tables = %d, want 5", db.Tables())
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Tables() != 1 {
		t.Fatalf("after compaction tables = %d, want 1", db.Tables())
	}
	// Latest round wins everywhere.
	for i := 0; i < 50; i++ {
		got, err := db.Get([]byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(got) != "r4" {
			t.Fatalf("k%03d = %q, %v", i, got, err)
		}
	}
	// Old files are removed from disk once dereferenced.
	names, _ := filepath.Glob(filepath.Join(db.opts.Dir, "*.sst"))
	if len(names) != 1 {
		t.Fatalf("sst files on disk = %d, want 1", len(names))
	}
}

func TestCompactionDropsTombstones(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	db.Put([]byte("keep"), []byte("v"))
	db.Put([]byte("gone"), []byte("v"))
	db.Flush()
	db.Delete([]byte("gone"))
	db.Flush()
	db.Compact()
	it := scanDB(db, nil, nil)
	defer it.Close()
	var keys []string
	for it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if len(keys) != 1 || keys[0] != "keep" {
		t.Fatalf("post-compaction keys = %v", keys)
	}
}

func TestScanSurvivesConcurrentCompaction(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	db.Flush()
	it := scanDB(db, nil, nil)
	defer it.Close()
	// Read a few entries, compact underneath, keep reading.
	for i := 0; i < 10; i++ {
		if !it.Next() {
			t.Fatal("iterator ended early")
		}
	}
	for i := 0; i < 3; i++ {
		db.Put([]byte(fmt.Sprintf("extra%d", i)), []byte("v"))
		db.Flush()
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	count := 10
	for it.Next() {
		count++
	}
	if it.Err() != nil {
		t.Fatalf("iterator error after compaction: %v", it.Err())
	}
	if count != 500 {
		t.Fatalf("snapshot scan saw %d keys, want 500", count)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := newTestDB(t, Options{MemtableBytes: 32 << 10})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := []byte(fmt.Sprintf("w%d-k%04d", w, i))
				if err := db.Put(key, []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				it := scanDB(db, nil, nil)
				prev := ""
				for it.Next() {
					k := string(it.Key())
					if prev != "" && k <= prev {
						t.Errorf("scan out of order: %q after %q", k, prev)
						it.Close()
						return
					}
					prev = k
				}
				if it.Err() != nil {
					t.Errorf("scan: %v", it.Err())
				}
				it.Close()
			}
		}()
	}
	wg.Wait()
	// Final integrity check.
	it := scanDB(db, nil, nil)
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	if n != 4*300 {
		t.Fatalf("final count %d, want %d", n, 4*300)
	}
}

func TestStatsCounters(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte("v"), 100))
	}
	db.Flush()
	before := db.Stats()
	it := scanDB(db, []byte("k010"), []byte("k050"))
	for it.Next() {
	}
	it.Close()
	d := db.Stats().Sub(before)
	if d.Scans != 1 {
		t.Errorf("scans = %d", d.Scans)
	}
	if d.EntriesRead != 40 {
		t.Errorf("entries read = %d, want 40", d.EntriesRead)
	}
	if d.BlocksRead == 0 || d.BytesRead == 0 {
		t.Errorf("expected block reads, got %+v", d)
	}
	if db.Stats().Puts != 100 {
		t.Errorf("puts = %d", db.Stats().Puts)
	}
}

func TestBloomFilterCutsPointReads(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("present%04d", i)), []byte("v"))
	}
	db.Flush()
	before := db.Stats()
	for i := 0; i < 1000; i++ {
		db.Get([]byte(fmt.Sprintf("absent%04d", i)))
	}
	d := db.Stats().Sub(before)
	if d.BloomNegative < 900 {
		t.Fatalf("bloom negatives = %d, want ≈1000", d.BloomNegative)
	}
}

func TestClosedStore(t *testing.T) {
	db := newTestDB(t, Options{})
	db.Put([]byte("k"), []byte("v"))
	db.Close()
	if err := db.Put([]byte("k2"), []byte("v")); err != ErrClosed {
		t.Errorf("Put after close: %v", err)
	}
	if _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Errorf("Get after close: %v", err)
	}
	if _, err := db.Snapshot(); err != ErrClosed {
		t.Errorf("Snapshot after close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without dir must fail")
	}
}

// Randomized differential test against a plain map.
func TestRandomOpsMatchModel(t *testing.T) {
	db := newTestDB(t, Options{MemtableBytes: 8 << 10, CompactAt: 3})
	model := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 5000; op++ {
		k := fmt.Sprintf("key%03d", rng.Intn(500))
		switch rng.Intn(10) {
		case 0:
			db.Delete([]byte(k))
			delete(model, k)
		case 1:
			got, err := db.Get([]byte(k))
			want, ok := model[k]
			if ok != (err == nil) || (ok && string(got) != want) {
				t.Fatalf("op %d: Get(%q) = %q,%v; model %q,%v", op, k, got, err, want, ok)
			}
		default:
			v := fmt.Sprintf("v%d", op)
			db.Put([]byte(k), []byte(v))
			model[k] = v
		}
	}
	// Full scan equals the model.
	it := scanDB(db, nil, nil)
	defer it.Close()
	got := map[string]string{}
	for it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if len(got) != len(model) {
		t.Fatalf("scan size %d, model %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("key %q: scan %q, model %q", k, got[k], v)
		}
	}
}

func TestBloomFilterUnit(t *testing.T) {
	f := newBloomFilter(100)
	for i := 0; i < 100; i++ {
		f.add([]byte(fmt.Sprintf("member%d", i)))
	}
	for i := 0; i < 100; i++ {
		if !f.mayContain([]byte(fmt.Sprintf("member%d", i))) {
			t.Fatal("bloom filter false negative")
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if f.mayContain([]byte(fmt.Sprintf("nonmember%d", i))) {
			fp++
		}
	}
	if fp > 100 {
		t.Fatalf("false positive rate %d/1000 too high", fp)
	}
	// Round trip.
	f2, ok := decodeBloomFilter(f.encode())
	if !ok {
		t.Fatal("decode failed")
	}
	for i := 0; i < 100; i++ {
		if !f2.mayContain([]byte(fmt.Sprintf("member%d", i))) {
			t.Fatal("decoded filter lost members")
		}
	}
	if _, ok := decodeBloomFilter([]byte{1, 2}); ok {
		t.Fatal("corrupt filter must not decode")
	}
}

func TestSkiplistOrdering(t *testing.T) {
	s := newSkiplist(1)
	rng := rand.New(rand.NewSource(5))
	keys := rng.Perm(500)
	for _, k := range keys {
		s.set([]byte(fmt.Sprintf("k%04d", k)), []byte("v"), kindValue)
	}
	it := s.iter()
	prev := ""
	n := 0
	for it.Next() {
		k := string(it.Key())
		if prev != "" && k <= prev {
			t.Fatalf("out of order: %q after %q", k, prev)
		}
		prev = k
		n++
	}
	if n != 500 {
		t.Fatalf("iterated %d, want 500", n)
	}
	if s.length != 500 {
		t.Fatalf("length = %d", s.length)
	}
}

// Heights follow the p = 1/4 geometric law a skiplist's O(log n) search
// needs: height k has share 3/4 · 4^-(k-1). A seed fixes the sequence.
func TestSkiplistHeightDistribution(t *testing.T) {
	const draws = 100000
	for _, seed := range []int64{0, 1, 2, 1 << 40} {
		s, again := newSkiplist(seed), newSkiplist(seed)
		var count [maxHeight + 1]int
		for i := 0; i < draws; i++ {
			h := s.randomHeight()
			if h < 1 || h > maxHeight {
				t.Fatalf("seed %d: height %d outside 1..%d", seed, h, maxHeight)
			}
			if h2 := again.randomHeight(); h2 != h {
				t.Fatalf("seed %d: draw %d is %d, then %d from the same seed", seed, i, h, h2)
			}
			count[h]++
		}
		want := 0.75
		for k := 1; k <= 5; k++ {
			if got := float64(count[k]) / draws; got < 0.9*want || got > 1.1*want {
				t.Errorf("seed %d: height %d has share %.5f, want %.5f ± 10%%", seed, k, got, want)
			}
			want /= 4
		}
	}
}

// A flush sizes its table writer's buffer to the memtable it writes: a
// one-entry flush allocates a few kilobytes, not the 256 KiB buffer a large
// table gets.
func TestFlushBufferSizedToTable(t *testing.T) {
	db := newTestDB(t, Options{FS: vfs.NewFault(), Dir: "/db", CompactAt: -1})
	for round := 0; round < 3; round++ {
		if err := db.Put([]byte(fmt.Sprintf("key%d", round)), []byte("value")); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<10 {
			t.Fatalf("flush %d of a one-entry memtable allocated %d B, want < %d", round, got, 32<<10)
		}
	}
}

func TestSSTableCorruptBlockDetected(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Dir: dir, CompactAt: -1})
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 50))
	}
	db.Flush()
	db.Close()
	// Flip a byte in the middle of the data section.
	names, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(names) != 1 {
		t.Fatalf("sst files = %d", len(names))
	}
	buf, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xFF
	if err := os.WriteFile(names[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err) // index+footer intact, open succeeds
	}
	defer db2.Close()
	it := scanDB(db2, nil, nil)
	defer it.Close()
	for it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("corrupt block must surface a checksum error")
	}
}

func BenchmarkPut(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put([]byte(fmt.Sprintf("key%012d", i)), val)
	}
}

func BenchmarkScan(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < 10000; i++ {
		db.Put([]byte(fmt.Sprintf("key%08d", i)), val)
	}
	db.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := scanDB(db, []byte("key00002000"), []byte("key00003000"))
		for it.Next() {
		}
		it.Close()
	}
}

// Size-tiered compaction: the automatic trigger merges the newest tier of
// similar-sized tables without rewriting a much larger old table.
func TestTieredCompactionSparesBigTable(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	// Build one big table (manual full compaction of lots of data).
	for i := 0; i < 5000; i++ {
		db.Put([]byte(fmt.Sprintf("big%05d", i)), []byte("v"))
	}
	db.Flush()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	bigSeq := db.tables[len(db.tables)-1].seq

	// Now enable auto compaction and add several small flushes.
	db.opts.CompactAt = 4
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			db.Put([]byte(fmt.Sprintf("small%d-%02d", round, i)), []byte("v"))
		}
		db.Flush()
	}
	// The big table must still be the same file (never rewritten).
	found := false
	for _, tab := range db.tables {
		if tab.seq == bigSeq {
			found = true
		}
	}
	if !found {
		t.Fatal("tiered compaction rewrote the big table")
	}
	if db.Stats().Compactions == 1 {
		t.Fatal("automatic tiered compaction never ran")
	}
	// All data still readable.
	if _, err := db.Get([]byte("big00042")); err != nil {
		t.Fatalf("big row lost: %v", err)
	}
	if _, err := db.Get([]byte("small3-07")); err != nil {
		t.Fatalf("small row lost: %v", err)
	}
}

// Partial compaction must preserve tombstones that shadow older tables.
func TestPartialCompactionKeepsTombstones(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	for i := 0; i < 3000; i++ {
		db.Put([]byte(fmt.Sprintf("base%05d", i)), []byte("old"))
	}
	db.Flush()
	db.Compact() // one big old table holding base rows

	// Delete a base row, then create a small tier and partially compact it.
	db.Delete([]byte("base00042"))
	db.Put([]byte("extra1"), []byte("v"))
	db.Flush()
	db.Put([]byte("extra2"), []byte("v"))
	db.Flush()
	if err := db.compactTables(2); err != nil { // merge the two small tables only
		t.Fatal(err)
	}
	nTables := db.Tables()
	if nTables != 2 {
		t.Fatalf("tables = %d, want 2 (merged tier + big table)", nTables)
	}
	// The tombstone must still shadow the base row in the big table.
	if _, err := db.Get([]byte("base00042")); err != ErrNotFound {
		t.Fatalf("tombstone lost in partial compaction: %v", err)
	}
	// A later full compaction drops it for good.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("base00042")); err != ErrNotFound {
		t.Fatalf("after full compaction: %v", err)
	}
}

func TestSyncWrites(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Dir: dir, SyncWrites: true})
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// With SyncWrites every Put reaches the disk WAL: a crash-reopen without
	// any explicit flush must still see it.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got, err := db2.Get([]byte("k")); err != nil || string(got) != "v" {
		t.Fatalf("synced write lost: %q %v", got, err)
	}
}
