package kv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestBlockCacheBasics(t *testing.T) {
	c := newBlockCache(1000)
	k1 := blockKey{seq: 1, block: 0}
	if c.get(k1) != nil {
		t.Fatal("empty cache must miss")
	}
	c.put(k1, []byte("hello"))
	if got := c.get(k1); string(got) != "hello" {
		t.Fatalf("get = %q", got)
	}
	// Replacement updates size and value.
	c.put(k1, []byte("world!"))
	if got := c.get(k1); string(got) != "world!" {
		t.Fatalf("after replace: %q", got)
	}
}

func TestBlockCacheEvictsLRU(t *testing.T) {
	c := newBlockCache(300)
	for i := 0; i < 4; i++ {
		c.put(blockKey{seq: 1, block: i}, make([]byte, 100))
	}
	// Capacity 300, four 100-byte blocks: the first (LRU) must be gone.
	if c.get(blockKey{seq: 1, block: 0}) != nil {
		t.Fatal("oldest block must be evicted")
	}
	if c.get(blockKey{seq: 1, block: 3}) == nil {
		t.Fatal("newest block must survive")
	}
	if c.size > 300 {
		t.Fatalf("size %d exceeds capacity", c.size)
	}
}

func TestBlockCacheLRUOrderRespectsGets(t *testing.T) {
	c := newBlockCache(250)
	c.put(blockKey{seq: 1, block: 0}, make([]byte, 100))
	c.put(blockKey{seq: 1, block: 1}, make([]byte, 100))
	// Touch block 0 so block 1 becomes the LRU.
	c.get(blockKey{seq: 1, block: 0})
	c.put(blockKey{seq: 1, block: 2}, make([]byte, 100))
	if c.get(blockKey{seq: 1, block: 1}) != nil {
		t.Fatal("block 1 (LRU) must be evicted")
	}
	if c.get(blockKey{seq: 1, block: 0}) == nil {
		t.Fatal("recently used block 0 must survive")
	}
}

func TestBlockCacheDropTable(t *testing.T) {
	c := newBlockCache(10000)
	c.put(blockKey{seq: 1, block: 0}, make([]byte, 10))
	c.put(blockKey{seq: 2, block: 0}, make([]byte, 10))
	c.dropTable(1)
	if c.get(blockKey{seq: 1, block: 0}) != nil {
		t.Fatal("dropped table block must be gone")
	}
	if c.get(blockKey{seq: 2, block: 0}) == nil {
		t.Fatal("other table's block must remain")
	}
}

func TestBlockCacheDisabled(t *testing.T) {
	c := newBlockCache(0)
	c.put(blockKey{seq: 1, block: 0}, []byte("x"))
	if c.get(blockKey{seq: 1, block: 0}) != nil {
		t.Fatal("zero-capacity cache must store nothing")
	}
}

func TestCacheServesRepeatedScans(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte("v"), 100))
	}
	db.Flush()
	scan := func() {
		it := scanDB(db, []byte("k00100"), []byte("k00500"))
		for it.Next() {
		}
		it.Close()
	}
	scan() // cold: populates the cache
	before := db.Stats()
	scan() // warm: should hit the cache
	d := db.Stats().Sub(before)
	if d.CacheHits == 0 {
		t.Fatalf("warm scan had no cache hits: %+v", d)
	}
	if d.BlocksRead != 0 {
		t.Fatalf("warm scan read %d blocks from disk", d.BlocksRead)
	}
}

// A snapshot keeps reading the tables compaction has retired, and those reads
// must not put their blocks back in the cache, where nothing but LRU pressure
// would ever remove them.
func TestCacheHoldsNoBlocksOfRetiredTables(t *testing.T) {
	db := newTestDB(t, Options{CompactAt: -1})
	for table := 0; table < 3; table++ {
		for i := 0; i < 500; i++ {
			db.Put([]byte(fmt.Sprintf("k%d-%05d", table, i)), bytes.Repeat([]byte("v"), 100))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	rows := 0
	it := snap.ScanRanges([]Range{{}}) // reads the three victims, which the snapshot pins
	for it.Next() {
		rows++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if rows != 1500 {
		t.Fatalf("snapshot scan saw %d rows, want 1500", rows)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}

	db.mu.Lock()
	live := map[uint64]bool{}
	for _, sr := range db.tables {
		live[sr.seq] = true
	}
	db.mu.Unlock()
	db.cache.mu.Lock()
	defer db.cache.mu.Unlock()
	for k, e := range db.cache.items {
		if !live[k.seq] {
			t.Errorf("block %d of table %d is cached (%d bytes); the table set is %v",
				k.block, k.seq, len(e.Value.(*blockEntry).data), live)
		}
	}
}

func TestBatchApply(t *testing.T) {
	db := newTestDB(t, Options{})
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	b.Delete([]byte("k050"))
	if b.Len() != 101 {
		t.Fatalf("len = %d", b.Len())
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("k007")); err != nil || string(got) != "v7" {
		t.Fatalf("k007 = %q, %v", got, err)
	}
	if _, err := db.Get([]byte("k050")); err != ErrNotFound {
		t.Fatalf("deleted-in-batch key: %v", err)
	}
	// Reuse after reset.
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("reset must empty the batch")
	}
	b.Put([]byte("again"), []byte("1"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("again")); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLastWriteWins(t *testing.T) {
	db := newTestDB(t, Options{})
	var b Batch
	b.Put([]byte("k"), []byte("first"))
	b.Put([]byte("k"), []byte("second"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get([]byte("k"))
	if err != nil || string(got) != "second" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestBatchEmptyAndErrors(t *testing.T) {
	db := newTestDB(t, Options{})
	if err := db.Apply(&Batch{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	var b Batch
	b.Put(nil, []byte("v"))
	if err := db.Apply(&b); err == nil {
		t.Fatal("empty key in batch must fail")
	}
	db.Close()
	var b2 Batch
	b2.Put([]byte("k"), []byte("v"))
	if err := db.Apply(&b2); err != ErrClosed {
		t.Fatalf("apply after close: %v", err)
	}
}

func TestBatchSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Dir: dir})
	var b Batch
	b.Put([]byte("durable"), []byte("1"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if err := db.runOnCommitter(func() error { return db.wal.flush() }); err != nil {
		t.Fatal(err)
	}
	// Reopen without closing: batched writes replay from the WAL.
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("durable")); err != nil {
		t.Fatalf("batched write lost after crash: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t, Options{Dir: dir, CompactAt: -1})
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("v"), 64))
	}
	db.Flush()
	if err := db.Verify(); err != nil {
		t.Fatalf("clean store must verify: %v", err)
	}
	// Corrupt a data byte on disk behind the store's back.
	names, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(names) != 1 {
		t.Fatalf("sst files = %d", len(names))
	}
	buf, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[50] ^= 0xFF
	if err := os.WriteFile(names[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Verify(); err == nil {
		t.Fatal("corruption must be detected")
	}
	db.Close()
	if err := db.Verify(); err != ErrClosed {
		t.Fatalf("verify after close: %v", err)
	}
}
