package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/vfs"
)

// Options configure a store.
type Options struct {
	// Dir is the directory holding the WAL and SSTables. Created if missing.
	Dir string
	// MemtableBytes is the flush threshold. Default 4 MiB.
	MemtableBytes int
	// CompactAt triggers a full compaction when the SSTable count reaches
	// this value. Default 6. Zero keeps the default; negative disables
	// automatic compaction.
	CompactAt int
	// SyncWrites fsyncs the WAL before acknowledging a write. Default off:
	// group durability is what HBase offers too. Concurrent synced writers
	// share fsyncs: the committer goroutine syncs once per commit group, not
	// once per write. An Apply big enough to be ingested writes no WAL
	// record and is durable when it returns either way.
	SyncWrites bool
	// BlockCacheBytes sizes the per-store LRU block cache. Default 8 MiB;
	// negative disables caching.
	BlockCacheBytes int64
	// FS is the filesystem the store runs on. Default vfs.Default (the real
	// disk); tests substitute vfs.NewFault() to inject failures and crashes.
	FS vfs.FS
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MemtableBytes <= 0 {
		out.MemtableBytes = 4 << 20
	}
	if out.CompactAt == 0 {
		out.CompactAt = 6
	}
	if out.BlockCacheBytes == 0 {
		out.BlockCacheBytes = 8 << 20
	}
	if out.FS == nil {
		out.FS = vfs.Default
	}
	return out
}

// DB is a single-node LSM store. All methods are safe for concurrent use.
//
// Two background goroutines run for the life of the store (joined by Close
// through bg): the committer (commit.go), which owns the WAL and is the sole
// mutator of the memtable and the table manifest, and the compactor
// (compactor.go), which merges SSTables off the write path.
type DB struct {
	opts Options

	mu  sync.Mutex
	mem *skiplist
	// frozen holds immutable memtables, newest first: the active list moves
	// here (freezeLocked) when a snapshot pins the store or a flush begins,
	// and the next flush merges the whole stack into one SSTable. Frozen
	// lists are never mutated, so snapshots iterate them without a lock.
	frozen      []*skiplist
	frozenBytes int
	tables      []*sstReader // newest first
	nextSeq     uint64
	closed      bool

	// wal is owned by the committer goroutine once Open returns: every
	// append, sync and rotation happens there. Open (before the goroutines
	// start) and Close (after bg.Wait joins them) are the only other
	// touchpoints, so no lock guards it.
	wal *wal

	commit    *committer
	compactor *compactor
	bgCtx     context.Context // cancelled by Close; aborts an in-flight merge
	bgCancel  context.CancelFunc
	bg        sync.WaitGroup

	cache *blockCache // nil when disabled
	stats Stats
}

const (
	walName    = "wal.log"
	tablesName = "TABLES"
)

// Open opens (or creates) a store in opts.Dir, replaying any WAL left behind
// by an unclean shutdown.
//
// Recovery sequence: the TABLES manifest names the live SSTables, and any
// .sst file not listed there is deleted — it is either an uncommitted flush
// (its records are still in the WAL) or a compaction victim whose durable
// removal never happened (its records live in the merged table that the
// manifest does list). Leftover .tmp files (table or manifest commits that
// never renamed) are deleted too. Then the WAL replays into the memtable.
//
// A directory without a manifest is new, and Open writes an empty one before
// any table can exist. A directory that holds an .sst file but no manifest
// therefore did not come from this store: Open refuses it, naming the file,
// and deletes nothing.
func Open(opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("kv: Options.Dir is required")
	}
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("kv: create dir: %w", err)
	}
	db := &DB{opts: opts, mem: newSkiplist(1), nextSeq: 1}
	if opts.BlockCacheBytes > 0 {
		db.cache = newBlockCache(opts.BlockCacheBytes)
	}

	names, err := fsys.List(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("kv: list dir: %w", err)
	}
	order, haveManifest, err := readTables(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	// rank maps a listed table to its manifest position (0 = newest).
	rank := make(map[uint64]int, len(order))
	for i, seq := range order {
		rank[seq] = i
	}
	for _, name := range names {
		if !strings.HasSuffix(name, sstSuffix) {
			continue
		}
		seq, perr := strconv.ParseUint(strings.TrimSuffix(name, sstSuffix), 10, 64)
		if perr != nil {
			continue // not one of ours
		}
		if !haveManifest {
			return nil, fmt.Errorf("kv: %s holds sstable %s but no %s manifest; re-load the data into a new directory", opts.Dir, name, tablesName)
		}
		path := filepath.Join(opts.Dir, name)
		if _, live := rank[seq]; !live {
			// Stale: uncommitted flush or unremoved compaction victim.
			if err := fsys.Remove(path); err != nil {
				db.releaseAll()
				return nil, fmt.Errorf("kv: clean stale sstable %s: %w", name, err)
			}
			continue
		}
		sr, err := openSSTable(fsys, path, seq, &db.stats, db.cache)
		if err != nil {
			db.releaseAll()
			return nil, err
		}
		sr.retain()
		db.tables = append(db.tables, sr)
		if seq >= db.nextSeq {
			db.nextSeq = seq + 1
		}
	}
	if missing := len(rank) - len(db.tables); missing > 0 {
		db.releaseAll()
		return nil, fmt.Errorf("kv: manifest lists %d missing sstable(s) in %s", missing, opts.Dir)
	}
	// Newest first so the merge heap prefers fresher versions. The manifest's
	// line order is the authority: a background merge's output can carry a
	// higher sequence number than a concurrently-started flush whose data is
	// newer, so sorting by seq would let old merged versions shadow
	// acknowledged writes.
	sort.Slice(db.tables, func(i, j int) bool { return rank[db.tables[i].seq] < rank[db.tables[j].seq] })
	// Uncommitted temp files never hold the only copy of anything: delete.
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			if err := fsys.Remove(filepath.Join(opts.Dir, name)); err != nil {
				db.releaseAll()
				return nil, fmt.Errorf("kv: clean %s: %w", name, err)
			}
		}
	}

	// Replay the WAL into the memtable.
	walPath := filepath.Join(opts.Dir, walName)
	valid, size, err := replayWAL(fsys, walPath, func(entries []batchEntry) {
		for _, e := range entries {
			db.mem.set(append([]byte(nil), e.key...), append([]byte(nil), e.value...), e.kind)
		}
	})
	if err != nil {
		db.releaseAll()
		return nil, err
	}
	w, err := openWAL(fsys, walPath, nil)
	if err != nil {
		db.releaseAll()
		return nil, err
	}
	if valid < size {
		// Replay stopped at a torn or corrupt tail. A record appended after
		// it would lie past the point every later replay stops at, lost
		// though acknowledged, so the log starts out poisoned: the first
		// write flushes what replay recovered and rotates to a fresh log
		// (commitGroup), and an Open that writes nothing leaves the file as
		// it found it.
		_ = w.poison(fmt.Errorf("kv: %s has a torn tail after byte %d", walPath, valid))
	}
	db.wal = w
	if !haveManifest {
		// First open: record the empty table set, so no table file is ever
		// on disk without a manifest to judge it by.
		if err := db.writeTables(); err != nil {
			_ = db.wal.close()
			db.releaseAll()
			return nil, err
		}
	}
	// Make the (possibly new) WAL's directory entry durable: with SyncWrites
	// a record is acknowledged as durable the moment the file syncs, which
	// only holds if the file itself survives the crash.
	if err := fsys.SyncDir(opts.Dir); err != nil {
		_ = db.wal.close()
		db.releaseAll()
		return nil, fmt.Errorf("kv: sync dir: %w", err)
	}

	// Recovery succeeded: start the committer and the compaction supervisor.
	// Nothing above runs concurrently, so the single-threaded recovery code
	// could touch the WAL and table set directly.
	db.bgCtx, db.bgCancel = context.WithCancel(context.Background())
	db.commit = newCommitter(db)
	db.compactor = newCompactor(db)
	db.bg.Add(2)
	go func() {
		defer db.bg.Done()
		db.commit.loop()
	}()
	go func() {
		defer db.bg.Done()
		db.compactor.loop()
	}()
	return db, nil
}

// readTables parses the TABLES manifest: a header line then one live table
// sequence number per line, newest first. The line order is authoritative —
// writeTables records the in-memory table order, and a merged table's
// sequence number does not encode its recency rank (a flush that began
// before the merge snapshot can hold newer data under a lower number).
// Returns haveManifest=false when the file does not exist.
func readTables(fsys vfs.FS, dir string) ([]uint64, bool, error) {
	data, err := vfs.ReadFile(fsys, filepath.Join(dir, tablesName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("kv: read tables manifest: %w", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != "tables v1" {
		return nil, false, fmt.Errorf("kv: tables manifest has bad header")
	}
	order := make([]uint64, 0, len(lines)-1)
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		seq, err := strconv.ParseUint(ln, 10, 64)
		if err != nil {
			return nil, false, fmt.Errorf("kv: tables manifest has bad entry %q", ln)
		}
		order = append(order, seq)
	}
	return order, true, nil
}

// writeTables atomically replaces the TABLES manifest with the current table
// set (vfs.WriteFileAtomic). This is the commit point for flushes and
// compactions: a table not listed here is deleted at the next Open. Only
// recovery (single-threaded) and the committer goroutine call it, so the
// manifest I/O is serialized without holding db.mu across it.
func (db *DB) writeTables() error {
	db.mu.Lock()
	seqs := make([]uint64, len(db.tables))
	for i, t := range db.tables {
		seqs[i] = t.seq
	}
	db.mu.Unlock()
	return db.writeManifest(seqs)
}

// writeManifest commits an explicit table order (newest first) to the TABLES
// manifest. flush passes the not-yet-published table ahead of the current
// set so the manifest commit can precede the in-memory install; everything
// else goes through writeTables. Committer goroutine (or recovery) only.
func (db *DB) writeManifest(seqs []uint64) error {
	var buf bytes.Buffer
	buf.WriteString("tables v1\n")
	for _, seq := range seqs {
		_, _ = fmt.Fprintf(&buf, "%d\n", seq)
	}
	if err := vfs.WriteFileAtomic(db.opts.FS, filepath.Join(db.opts.Dir, tablesName), buf.Bytes()); err != nil {
		return fmt.Errorf("kv: commit tables manifest: %w", err)
	}
	return nil
}

func (db *DB) releaseAll() {
	for _, t := range db.tables {
		t.release()
	}
	db.tables = nil
}

// Put stores a key-value pair.
func (db *DB) Put(key, value []byte) error {
	return db.write(kindValue, key, value)
}

// Delete removes a key (by writing a tombstone).
func (db *DB) Delete(key []byte) error {
	return db.write(kindTombstone, key, nil)
}

// write validates and copies one record, then hands it to the committer: the
// caller blocks until its commit group is durable (one shared fsync when
// SyncWrites is on) and applied, or until the group's failure fans out. WAL
// healing, memtable-threshold flushes and compaction scheduling all happen on
// the committer's side of the queue — no caller holds db.mu across I/O.
func (db *DB) write(kind byte, key, value []byte) error {
	if len(key) == 0 {
		return errEmptyKey
	}
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	return db.commit.submit(&commitReq{
		entries: []batchEntry{{kind: kind, key: k, value: v}},
		done:    make(chan error, 1),
	})
}

// Get returns the value for key, or ErrNotFound. The active-memtable probe
// runs under db.mu (it is the only mutable source); frozen memtables and the
// retained table set are searched outside the lock. Point reads deliberately
// do not freeze the memtable — that would shatter a write-heavy workload into
// per-get frozen lists — so Get pins the live view instead of a Snapshot.
func (db *DB) Get(key []byte) ([]byte, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	db.stats.Gets.Add(1)
	if n := db.mem.get(key); n != nil {
		var out []byte
		notFound := n.kind == kindTombstone
		if !notFound {
			out = append([]byte(nil), n.value...)
		}
		db.mu.Unlock()
		if notFound {
			return nil, ErrNotFound
		}
		return out, nil
	}
	// Pin the frozen stack and retain the table set, then search outside the
	// lock: frozen lists are immutable and the references keep the files open.
	frozen := make([]*skiplist, len(db.frozen))
	copy(frozen, db.frozen)
	tables := make([]*sstReader, len(db.tables))
	copy(tables, db.tables)
	for _, t := range tables {
		t.retain()
	}
	db.mu.Unlock()
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()
	return lookup(key, frozen, tables)
}

// lookup is the point-read path below the active memtable, shared by DB.Get
// and Snapshot.Get: immutable memtables newest first, then tables newest
// first; the first source holding the key decides, and a tombstone there means
// not found. Callers keep the tables retained for the duration of the call.
func lookup(key []byte, mems []*skiplist, tables []*sstReader) ([]byte, error) {
	for _, m := range mems {
		if n := m.get(key); n != nil {
			if n.kind == kindTombstone {
				return nil, ErrNotFound
			}
			return append([]byte(nil), n.value...), nil
		}
	}
	for _, t := range tables {
		v, kind, found, err := t.get(key)
		if err != nil {
			return nil, err
		}
		if found {
			if kind == kindTombstone {
				return nil, ErrNotFound
			}
			return append([]byte(nil), v...), nil
		}
	}
	return nil, ErrNotFound
}

// Flush persists the memtable to a new SSTable and truncates the WAL, then
// waits for any compaction the flush scheduled to finish, so the table count
// a caller sees after Flush is settled. A failed background compaction does
// not fail Flush; it surfaces as CompactDegraded in Stats.
func (db *DB) Flush() error {
	if err := db.runOnCommitter(db.flush); err != nil {
		return err
	}
	db.compactor.waitIdle()
	return nil
}

// flush persists the frozen memtable stack (freezing the active list first)
// as one SSTable, commits it to the TABLES manifest and rotates the WAL.
// Crash ordering: the table file is durable before the manifest lists it, the
// manifest lists it before the frozen stack is dropped or the table enters
// the in-memory set, and the WAL (whose records the table supersedes) is
// deleted last — a crash or failure between any two steps recovers every
// acknowledged record from either the table or the WAL.
//
// A flush also heals a poisoned WAL (see wal): once every memtable — which
// together hold every acknowledged record — is durable in a table, the torn
// log can be rotated away. Empty memtables with a poisoned WAL rotate
// without writing a table.
//
// flush runs only on the committer goroutine (explicit Flush, the group
// commit's memtable-threshold check, and WAL healing all route through it).
// The committer is the sole writer of memtables, so while flush runs no
// record can enter any memtable: a concurrent Snapshot can only freeze the
// (empty, untouched) fresh active list, which freezeLocked skips. The frozen
// stack taken below is therefore exactly the set of records the WAL holds,
// and it is still the whole stack when flush drops it — which is what makes
// the rotation at the end safe. The long SSTable write needs no lock —
// frozen lists are immutable, and freezeLocked builds a new slice rather
// than writing into this one — only the install does.
func (db *DB) flush() error {
	db.mu.Lock()
	db.freezeLocked()
	mems := db.frozen
	db.mu.Unlock()
	if len(mems) == 0 {
		if db.wal.poisoned() {
			return db.rotateWAL()
		}
		return nil
	}
	db.mu.Lock()
	seq := db.nextSeq
	db.nextSeq++
	db.mu.Unlock()
	// Merge the stack newest first (source order is merge priority) and keep
	// tombstones: they must continue to shadow versions in older SSTables.
	total, srcBytes := 0, int64(0)
	sources := make([]kvIter, 0, len(mems))
	for _, m := range mems {
		total += m.length
		srcBytes += int64(m.bytes)
		sources = append(sources, m.iter())
	}
	sr, err := db.buildTable(seq, total, srcBytes, sources, true, nil)
	if err != nil {
		return err
	}

	if err := db.installNewest(sr, len(mems)); err != nil {
		return err
	}
	db.stats.Flushes.Add(1)

	// The WAL's contents are durable in the committed SSTable now.
	return db.rotateWAL()
}

// installNewest publishes a freshly built table as the store's newest — the
// last step of both a flush and an ingest, so their crash ordering lives
// here. The manifest lists sr ahead of the current set BEFORE sr enters the
// in-memory set; only then are the frozen memtables it supersedes dropped
// (frozen is how many: the whole stack for a flush, none for an ingest).
//
// The manifest is the commit point. If it fails, nothing in memory has
// changed — for a flush the memtables and WAL remain the authoritative copy
// of its records, so a later WAL heal cannot rotate away their only committed
// copy (the table file, unlisted, is deleted at the next Open). Dropping the
// stack first would leave empty memtables behind a failed commit, and the
// empty-memtable heal in flush would then rotate the WAL while the table was
// not in the manifest. Committer goroutine only; schedules a compaction when
// the table count reaches CompactAt.
func (db *DB) installNewest(sr *sstReader, frozen int) error {
	db.mu.Lock()
	seqs := make([]uint64, 0, len(db.tables)+1)
	seqs = append(seqs, sr.seq)
	for _, t := range db.tables {
		seqs = append(seqs, t.seq)
	}
	db.mu.Unlock()
	if err := db.writeManifest(seqs); err != nil {
		sr.release()
		return err
	}
	db.mu.Lock()
	db.tables = append([]*sstReader{sr}, db.tables...)
	if frozen > 0 {
		db.frozen = nil
		db.frozenBytes = 0
	}
	nTables := len(db.tables)
	db.mu.Unlock()
	db.stats.FrozenMemtables.Add(int64(-frozen))
	if db.opts.CompactAt > 0 && nTables >= db.opts.CompactAt {
		db.compactor.schedule()
	}
	return nil
}

// ingest writes a batch that fills a memtable (see Apply) straight into a
// new table: no WAL record, no memtable, no later flush. entries are sorted,
// one per key, tombstones kept. Committer goroutine only, so no record can
// enter a memtable while it runs.
//
// The memtables are flushed first: the batch is newer than every
// acknowledged write, and a version left in a memtable (or in the WAL, whose
// replay refills one) would shadow the batch's table. The flush also leaves
// the WAL empty, so a crash at any later step replays nothing older over the
// batch. Then the table is built and committed exactly as a flush commits
// its own (installNewest): a crash before the manifest lists it leaves the
// batch absent, after it the batch is whole — and durable, with or without
// SyncWrites, because the table file and the manifest are both synced.
func (db *DB) ingest(entries []batchEntry, srcBytes int) error {
	if err := db.flush(); err != nil {
		return fmt.Errorf("kv: flush before ingest: %w", err)
	}
	db.mu.Lock()
	seq := db.nextSeq
	db.nextSeq++
	db.mu.Unlock()
	sr, err := db.buildTable(seq, len(entries), int64(srcBytes), []kvIter{&sliceIter{entries: entries}}, true, nil)
	if err != nil {
		return err
	}
	if err := db.installNewest(sr, 0); err != nil {
		return err
	}
	db.stats.Puts.Add(int64(len(entries)))
	return nil
}

// buildTable merges sources (earlier sources win a key tie) into a new SSTable
// numbered seq and returns it opened and retained — the one table-build loop,
// under both flush and compactTables. expectedKeys sizes the bloom filter and
// srcBytes, the size of the sources, the writer's buffer.
// stop, when non-nil, is polled every 1024 rows and its error abandons the
// build. A failed build leaves at most an unlisted table file, which the next
// Open deletes.
func (db *DB) buildTable(seq uint64, expectedKeys int, srcBytes int64, sources []kvIter, keepTombstones bool, stop func() error) (*sstReader, error) {
	sw, err := newSSTWriter(db.opts.FS, db.opts.Dir, seq, expectedKeys, srcBytes)
	if err != nil {
		return nil, err
	}
	merged := newMergeIter(sources, allKeys, nil, nil)
	merged.keepTombstones = keepTombstones
	defer merged.Close()
	rows := 0
	for merged.Next() {
		if rows++; rows&1023 == 0 && stop != nil {
			if err := stop(); err != nil {
				sw.abort()
				return nil, err
			}
		}
		if err := sw.add(merged.kind, merged.Key(), merged.Value()); err != nil {
			sw.abort()
			return nil, err
		}
	}
	if err := merged.Err(); err != nil {
		sw.abort()
		return nil, err
	}
	if err := merged.Close(); err != nil {
		sw.abort()
		return nil, err
	}
	size, err := sw.finish()
	if err != nil {
		return nil, err
	}
	sr, err := openSSTable(db.opts.FS, sw.final, seq, &db.stats, db.cache)
	if err != nil {
		return nil, err
	}
	sr.retain()
	db.stats.BytesWritten.Add(size)
	return sr, nil
}

// rotateWAL replaces the WAL with a fresh, empty one; committer-goroutine
// only, like everything touching db.wal. Callers must ensure every
// acknowledged record is durable elsewhere first. On failure the store keeps
// a permanently-poisoned WAL so writes keep failing (and keep retrying the
// rotation) rather than silently appending to a log in an unknown state.
func (db *DB) rotateWAL() error {
	fsys := db.opts.FS
	// Close errors are deliberately ignored: the file is about to be
	// deleted, and a poisoned WAL cannot flush its buffer anyway.
	_ = db.wal.close()
	walPath := filepath.Join(db.opts.Dir, walName)
	if err := fsys.Remove(walPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		db.wal = brokenWAL(err)
		return err
	}
	w, err := openWAL(fsys, walPath, db.wal.w)
	if err != nil {
		db.wal = brokenWAL(err)
		return err
	}
	// Make the new WAL's directory entry (and the old one's removal)
	// durable; otherwise SyncWrites acknowledgements into a file that
	// vanishes with the crash would be lies.
	if err := fsys.SyncDir(db.opts.Dir); err != nil {
		_ = w.close()
		db.wal = brokenWAL(err)
		return err
	}
	db.wal = w
	return nil
}

// pickTierLocked chooses how many of the newest tables to merge: the longest
// newest-first prefix in which no table dwarfs the data accumulated so far
// (size-tiered compaction). Merging stops before a much larger, older table
// so steady-state write amplification stays logarithmic instead of linear.
func (db *DB) pickTierLocked() int {
	n := 1
	acc := db.tables[0].count
	for n < len(db.tables) && db.tables[n].count <= 4*acc {
		acc += db.tables[n].count
		n++
	}
	if n < 2 {
		n = 2 // merging a single table is a no-op; take the next one along
	}
	if n > len(db.tables) {
		n = len(db.tables)
	}
	return n
}

// Compact merges every SSTable into one, dropping shadowed versions and
// tombstones. The memtable is flushed first, then the full merge runs on the
// compaction supervisor (synchronously for this caller).
func (db *DB) Compact() error {
	if err := db.runOnCommitter(db.flush); err != nil {
		return err
	}
	return db.compactor.compactAll()
}

// compactTables selectors: how many of the newest tables to merge.
const (
	compactPickTier   = 0  // choose by the size-tiered heuristic
	compactEverything = -1 // merge every table
)

// compactTables merges the n newest tables into one (n as above, or an
// explicit count for tests). Tombstones are dropped only when every table
// participates — a partial merge must keep them so they continue to shadow
// versions in the older tables.
//
// Only the compaction supervisor (and tests, with automatic compaction off)
// may run this: the victim snapshot must stay a contiguous run of db.tables
// for the install splice, which holds because concurrent flushes only
// prepend and nobody else removes tables. The heavy merge I/O runs with no
// lock held; the install — table-set splice plus manifest commit — is handed
// to the committer goroutine, which serializes it with flushes.
func (db *DB) compactTables(n int) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if len(db.tables) == 0 {
		db.mu.Unlock()
		return nil
	}
	if n == compactEverything || n > len(db.tables) {
		n = len(db.tables)
	} else if n == compactPickTier {
		n = db.pickTierLocked()
	}
	if n <= 1 {
		db.mu.Unlock()
		return nil
	}
	full := n == len(db.tables)
	victims := make([]*sstReader, n)
	copy(victims, db.tables[:n])
	var total, srcBytes int64
	for _, t := range victims {
		t.retain()
		total += t.count
		srcBytes += t.size
	}
	// Allocate the merged table's sequence number now, under the same lock
	// as the snapshot: tables flushed while the merge runs get higher
	// numbers, so on reopen the seq order still ranks them newer than the
	// merged output they stack on top of.
	seq := db.nextSeq
	db.nextSeq++
	db.mu.Unlock()
	defer func() {
		for _, t := range victims {
			t.release()
		}
	}()

	sources := make([]kvIter, 0, n)
	for _, t := range victims {
		sources = append(sources, t.iter())
	}
	// The amortized shutdown check means Close never waits out a big merge.
	sr, err := db.buildTable(seq, int(total), srcBytes, sources, !full, db.bgCtx.Err)
	if err != nil {
		return err
	}
	if err := db.runOnCommitter(func() error { return db.installCompaction(victims, sr) }); err != nil {
		// Not installed (e.g. the store closed mid-merge): the merged file is
		// unlisted on disk, so the next Open deletes it.
		sr.release()
		return err
	}
	return nil
}

// installCompaction publishes a finished merge: splice the merged table over
// its victims in the table set, then commit the manifest. Runs on the
// committer goroutine.
func (db *DB) installCompaction(victims []*sstReader, sr *sstReader) error {
	db.mu.Lock()
	idx := -1
	for i, t := range db.tables {
		if t == victims[0] {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Unreachable while the single-supervisor invariant holds.
		db.mu.Unlock()
		return fmt.Errorf("kv: compaction victims no longer in table set")
	}
	next := make([]*sstReader, 0, len(db.tables)-len(victims)+1)
	next = append(next, db.tables[:idx]...)
	next = append(next, sr)
	next = append(next, db.tables[idx+len(victims):]...)
	db.tables = next
	db.mu.Unlock()
	db.stats.Compactions.Add(1)

	// Commit point: the manifest swap makes the merged table live and the
	// victims stale in one atomic step. This is what keeps a full
	// compaction's tombstone dropping crash-safe — if any victim file
	// outlives a crash (its deletion below was not yet durable), Open sees
	// it is unlisted and deletes it, so a dropped tombstone's shadowed
	// versions cannot resurrect.
	if err := db.writeTables(); err != nil {
		// The merged table serves reads in this process but is stale on
		// disk; at the next Open it is deleted and the still-listed victims
		// (whose files remain, not marked obsolete) take over. Identical
		// contents either way.
		for _, t := range victims {
			if db.cache != nil {
				db.cache.dropTable(t.seq)
			}
			t.release()
		}
		return err
	}
	for _, t := range victims {
		// Gauge first, then mark, then drop the table set's reference: if no
		// snapshot holds the victim the release unlinks it immediately and
		// decrements the gauge right back; otherwise the file lingers, counted,
		// until the last holder releases (the reaper in sstReader.release).
		db.stats.ObsoleteTables.Add(1)
		t.obsolete.Store(true)
		if db.cache != nil {
			db.cache.dropTable(t.seq)
		}
		t.release()
	}
	return nil
}

// Verify walks every SSTable block and checks its checksum, returning the
// first corruption found. The memtable and WAL are not covered (the WAL
// self-verifies on replay). Useful after copying store directories around.
func (db *DB) Verify() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	tables := make([]*sstReader, len(db.tables))
	copy(tables, db.tables)
	for _, t := range tables {
		t.retain()
	}
	db.mu.Unlock()
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()
	for _, t := range tables {
		for i := range t.index {
			if _, err := t.diskBlock(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats returns a snapshot of the store's I/O counters.
func (db *DB) Stats() StatsSnapshot {
	return db.stats.snapshot()
}

// Tables returns the current SSTable count (for tests and monitoring).
func (db *DB) Tables() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.tables)
}

// Close stops the background goroutines, flushes the WAL buffer and releases
// every table. Commit groups already in flight finish and acknowledge their
// real result; requests still queued behind them drain with ErrClosed — a
// waiter always hears an answer. Open iterators keep their retained tables
// alive until they are closed.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()

	db.commit.close()
	db.compactor.stop()
	db.bgCancel() // aborts an in-flight merge promptly
	db.bg.Wait()

	err := db.wal.close()
	db.mu.Lock()
	db.releaseAll()
	db.frozen = nil
	db.frozenBytes = 0
	db.mu.Unlock()
	return err
}

// errIter is an Iterator that immediately fails with a fixed error.
type errIter struct{ err error }

func (e *errIter) Next() bool    { return false }
func (e *errIter) Key() []byte   { return nil }
func (e *errIter) Value() []byte { return nil }
func (e *errIter) Err() error    { return e.err }
func (e *errIter) Close() error  { return nil }
func (e *errIter) Reset([]Range) {}
