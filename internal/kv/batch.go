package kv

// Batch collects writes to apply atomically-in-order as one commit-queue
// request — the bulk-load path: one enqueue, one WAL record, one group commit
// (sharing its fsync with any concurrent writers), one memtable application.
// A Batch is not safe for concurrent use; build it on one goroutine, then
// Apply it.
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
// applied in order. The batch travels to the committer as a single request:
// its entries commit (and fsync, with SyncWrites) together with whatever
// group they land in, and a failure anywhere in that group fails the batch
// as a whole. The batch is one WAL record: a crash leaves all of it or none.
//
// Entries were copied at queue time; the memtable takes ownership of them,
// so the Batch must not be mutated until Apply returns (Reset-and-reuse
// afterwards is fine — it installs fresh slices rather than scribbling on
// the old ones).
func (db *DB) Apply(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	for _, e := range b.entries {
		if len(e.key) == 0 {
			return errEmptyKey
		}
	}
	return db.commit.submit(&commitReq{entries: b.entries, done: make(chan error, 1)})
}
