package kv

import (
	"bytes"
	"slices"
)

// Batch collects writes to apply atomically-in-order as one commit-queue
// request — the bulk-load path. A batch smaller than a memtable is one
// enqueue, one WAL record, one group commit (sharing its fsync with any
// concurrent writers) and one memtable application; a bigger one becomes a
// table of its own (see Apply). A Batch is not safe for concurrent use; build
// it on one goroutine, then Apply it.
type Batch struct {
	entries []batchEntry
}

type batchEntry struct {
	kind       byte
	key, value []byte
}

// Put queues a key-value write. Key and value are copied.
func (b *Batch) Put(key, value []byte) {
	b.entries = append(b.entries, batchEntry{
		kind:  kindValue,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
}

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) {
	b.entries = append(b.entries, batchEntry{
		kind: kindTombstone,
		key:  append([]byte(nil), key...),
	})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.entries) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() {
	b.entries = b.entries[:0]
}

// Apply writes the whole batch. Later operations on the same key win, as if
// applied in order, and the batch lands all or nothing, crash included.
//
// A batch whose entries alone fill a memtable (MemtableBytes, counted as the
// memtable counts them) is ingested: it skips the WAL and the memtable and
// becomes the store's newest table, durable when Apply returns (see
// DB.ingest). Any smaller batch travels to the committer as a single request:
// its entries commit (and fsync, with SyncWrites) together with whatever
// group they land in, a failure anywhere in that group fails the batch as a
// whole, and the batch is one WAL record.
//
// Entries were copied at queue time; the memtable or the table build takes
// ownership of them, so the Batch must not be mutated until Apply returns
// (Reset-and-reuse afterwards is fine — it installs fresh slices rather than
// scribbling on the old ones).
func (db *DB) Apply(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	size := 0
	for _, e := range b.entries {
		if len(e.key) == 0 {
			return errEmptyKey
		}
		size += entryBytes(e.key, e.value)
	}
	if size >= db.opts.MemtableBytes {
		entries := sortedLastWins(b.entries)
		return db.runOnCommitter(func() error { return db.ingest(entries) })
	}
	return db.commit.submit(&commitReq{entries: b.entries, done: make(chan error, 1)})
}

// sortedLastWins returns entries sorted by key with one entry per key, the
// last one queued for it; tombstones are kept. entries itself is not
// reordered.
func sortedLastWins(entries []batchEntry) []batchEntry {
	sorted := slices.Clone(entries)
	slices.SortStableFunc(sorted, func(a, b batchEntry) int { return bytes.Compare(a.key, b.key) })
	out := sorted[:0]
	for i, e := range sorted {
		if i+1 < len(sorted) && bytes.Equal(e.key, sorted[i+1].key) {
			continue // a later entry for this key follows
		}
		out = append(out, e)
	}
	return out
}

// sliceIter walks sorted batch entries as a kvIter, the one source of an
// ingest's table build.
type sliceIter struct {
	entries []batchEntry
	pos     int
}

// seek rewinds to the first entry: the only merge over a sliceIter builds a
// whole table, so its one range is the full key space.
func (it *sliceIter) seek(_, _ []byte) { it.pos = 0 }

func (it *sliceIter) Next() bool {
	if it.pos >= len(it.entries) {
		return false
	}
	it.pos++
	return true
}

func (it *sliceIter) Key() []byte   { return it.entries[it.pos-1].key }
func (it *sliceIter) Value() []byte { return it.entries[it.pos-1].value }
func (it *sliceIter) Kind() byte    { return it.entries[it.pos-1].kind }
func (it *sliceIter) Err() error    { return nil }
func (it *sliceIter) Close() error  { return nil }
