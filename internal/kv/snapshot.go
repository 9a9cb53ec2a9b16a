package kv

import "sync"

// MVCC snapshot reads. A Snapshot pins an immutable point-in-time view of the
// store — the frozen memtable stack plus a refcounted handle on every live
// SSTable — in one short critical section, after which every read it serves
// runs without touching db.mu at all. Writers never wait for readers and
// readers never wait for writers: the committer keeps appending to a fresh
// active memtable while the snapshot iterates the frozen ones, and compaction
// retires tables underneath the snapshot freely because the snapshot's
// references defer the physical unlink until the last release (the
// refcount-drain reaper in sstReader.release).
//
// The memtable side works by freezing: Snapshot moves a non-empty active
// memtable onto the frozen stack (an O(1) pointer move — no entry is copied),
// where it becomes immutable and therefore safe to iterate lock-free. The
// committer starts a fresh active list and the next flush merges the whole
// frozen stack into one SSTable and drops it.

// maxFrozenMemtables bounds the frozen stack: scan-heavy interleaved
// workloads freeze lots of tiny memtables, and the committer forces a flush
// once the stack reaches this depth even if the byte threshold is far away,
// so reads never merge an unbounded number of memtable sources.
const maxFrozenMemtables = 8

// Snapshot is an immutable point-in-time view of one store. All methods are
// safe for concurrent use with each other and with writes to the parent DB;
// Close releases the pinned resources and must be called exactly once per
// snapshot (reads racing Close get ErrClosed, never a torn view).
//
// A Snapshot outlives its DB: reads keep working after DB.Close because the
// snapshot holds its own table references — the cluster layer relies on this
// when Cluster.Close runs under an open cluster snapshot.
type Snapshot struct {
	db *DB

	// mems and tables are immutable after construction (guarded only for the
	// Close handshake): the frozen memtables newest first, then the SSTables
	// newest first, forming the full read path in recency order.
	mu     sync.Mutex
	closed bool
	mems   []*skiplist
	tables []*sstReader
}

// Snapshot pins the store's current state: the active memtable is frozen (if
// non-empty), the frozen stack and the table set are captured, and every
// table is retained. One short db.mu section; no I/O, no copying of entries.
func (db *DB) Snapshot() (*Snapshot, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, ErrClosed
	}
	db.freezeLocked()
	mems := make([]*skiplist, len(db.frozen))
	copy(mems, db.frozen)
	tables := make([]*sstReader, len(db.tables))
	copy(tables, db.tables)
	for _, t := range tables {
		t.retain()
	}
	db.mu.Unlock()
	db.stats.PinnedSnapshots.Add(1)
	return &Snapshot{db: db, mems: mems, tables: tables}, nil
}

// freezeLocked moves a non-empty active memtable onto the frozen stack and
// installs a fresh one. Caller holds db.mu. The frozen list is immutable from
// here on: the committer (the sole memtable mutator) only ever writes to
// db.mem, so snapshots iterate frozen lists without any lock.
func (db *DB) freezeLocked() {
	if db.mem.length == 0 {
		return
	}
	db.frozen = append([]*skiplist{db.mem}, db.frozen...)
	db.frozenBytes += db.mem.bytes
	db.mem = newSkiplist(int64(db.nextSeq))
	db.stats.FrozenMemtables.Add(1)
}

// pin captures the snapshot's sources for one read: the immutable memtable
// views plus a per-call reference on every table, so the read stays valid
// even if the snapshot is closed while it runs.
func (s *Snapshot) pin() ([]*skiplist, []*sstReader, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	mems, tables := s.mems, s.tables
	for _, t := range tables {
		t.retain()
	}
	s.mu.Unlock()
	return mems, tables, nil
}

// Get returns the value for key as of the snapshot, or ErrNotFound. Lock-free
// beyond the snapshot's own closed check: frozen memtables are immutable and
// the tables are pinned.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	mems, tables, err := s.pin()
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, t := range tables {
			t.release()
		}
	}()
	s.db.stats.Gets.Add(1)
	return lookup(key, mems, tables)
}

// Scan returns an iterator over [start, end) as of the snapshot; nil bounds
// are open. It is ScanRanges of one range.
func (s *Snapshot) Scan(start, end []byte) Iterator {
	return s.scanRanges([]Range{{Start: start, End: end}}, nil)
}

// ScanRanges returns one iterator over every range in turn, as of the
// snapshot: what it yields is the concatenation of one Scan per range, in the
// order given, whether or not the ranges are sorted or overlap. The sources
// are pinned and merged once for the whole list, and each source seeks from
// one range to the next. ranges must not change while the iterator is open.
// The iterator holds its own table references, so it stays valid even if the
// snapshot is closed while it is open.
func (s *Snapshot) ScanRanges(ranges []Range) Iterator {
	return s.scanRanges(ranges, nil)
}

// scanRanges builds the merge iterator; onClose (when non-nil) runs at
// iterator close, after the tables are released — DB.Scan hooks the
// snapshot's release there so a plain Scan is a self-contained lease.
func (s *Snapshot) scanRanges(ranges []Range, onClose func()) Iterator {
	mems, tables, err := s.pin()
	if err != nil {
		if onClose != nil {
			onClose()
		}
		return &errIter{err: err}
	}
	s.db.stats.Scans.Add(1)
	sources := make([]kvIter, 0, len(mems)+len(tables))
	skips := make([]skipIter, len(mems))
	for i, m := range mems {
		skips[i].list = m
		sources = append(sources, &skips[i])
	}
	ssts := make([]sstIter, len(tables))
	for i, t := range tables {
		ssts[i].sr = t
		sources = append(sources, &ssts[i])
	}
	return newMergeIter(sources, ranges, &s.db.stats, tables, onClose)
}

// Close releases the snapshot's pinned tables. Idempotent; open iterators
// from Scan keep their own references and stay valid.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	tables := s.tables
	s.mu.Unlock()
	for _, t := range tables {
		t.release()
	}
	s.db.stats.PinnedSnapshots.Add(-1)
	return nil
}
