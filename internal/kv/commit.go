package kv

import (
	"fmt"
	"sync"
)

// Group commit. Put, Delete and Apply no longer touch the WAL themselves:
// they validate and copy their input, enqueue a commitReq on the committer's
// queue, and block until the committer acknowledges it. A single committer
// goroutine — the sole owner of the WAL and the only mutator of the memtable
// once Open returns — drains the queue, appends every record of every queued
// request, fsyncs ONCE for the whole group (when SyncWrites is on), applies
// the group to the memtable under db.mu, and wakes all waiters. Under W
// concurrent synced writers this amortizes the fsync across the group:
// fsyncs/op approaches 1/W instead of 1 (BenchmarkGroupCommit measures it,
// TestConcurrentPutsShareOneFsync pins one group = one fsync).
//
// Failure semantics are the WAL's poison semantics, widened to the group: any
// append or sync failure fails every waiter in the group with the same error,
// the WAL stays poisoned (sticky), and the next group heals it by flush +
// rotation before accepting records. Close drains queued-but-uncommitted
// requests with ErrClosed — a waiter always hears exactly one answer, never a
// lost acknowledgement.

// commitReq is one unit of work submitted to the committer goroutine: either
// a group-committable write (entries != nil) or an exclusive structural step
// (fn != nil) such as a flush, a compaction install, or a test probe.
// Exactly one result is delivered on done.
type commitReq struct {
	entries []batchEntry
	fn      func() error
	done    chan error
}

type committer struct {
	db *DB

	mu     sync.Mutex
	queue  []*commitReq
	closed bool
	// gate, when non-nil, is received from before each drain of the queue —
	// the test seam that pins a batch's composition (see TestWALPoisonFanout).
	gate chan struct{}

	// wake is buffered so enqueue never blocks; coalesced wake-ups are fine
	// because each loop round drains the whole queue.
	wake chan struct{}
}

func newCommitter(db *DB) *committer {
	return &committer{db: db, wake: make(chan struct{}, 1)}
}

// submit enqueues req and blocks until the committer answers (or until close
// drains the queue with ErrClosed).
func (c *committer) submit(req *commitReq) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.queue = append(c.queue, req)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return <-req.done
}

// run executes fn exclusively on the committer goroutine, serialized with
// every commit, flush and compaction install. This is how the background
// compactor publishes its merged table, and the test seam for touching
// committer-owned state (the WAL) safely.
func (db *DB) runOnCommitter(fn func() error) error {
	return db.commit.submit(&commitReq{fn: fn, done: make(chan error, 1)})
}

// pendingLen reports the queued-but-untaken request count (tests only).
func (c *committer) pendingLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

func (c *committer) setGate(gate chan struct{}) {
	c.mu.Lock()
	c.gate = gate
	c.mu.Unlock()
}

// close stops the committer: no new requests are accepted, queued requests
// are drained with ErrClosed, and the loop exits after finishing any round
// already in flight (whose waiters get that round's real result).
func (c *committer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pending := c.queue
	c.queue = nil
	c.mu.Unlock()
	for _, r := range pending {
		r.done <- ErrClosed
	}
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// loop drains the queue in rounds until close. Joined by DB.Close through
// db.bg; the WaitGroup is the committer's lifetime obligation.
func (c *committer) loop() {
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			if c.closed {
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
			<-c.wake
			continue
		}
		gate := c.gate
		c.mu.Unlock()
		// The gate holds only while work is pending, so an idle close never
		// blocks on it. A gating test must release (or clear) the gate before
		// Close, or Close would wait here for the held round.
		if gate != nil {
			<-gate
		}
		c.mu.Lock()
		batch := c.queue
		c.queue = nil
		c.mu.Unlock()
		// close may have drained the queue while the gate held.
		if len(batch) > 0 {
			c.process(batch)
		}
	}
}

// process runs one round: consecutive write requests commit as one group;
// structural requests run alone, in queue order.
func (c *committer) process(reqs []*commitReq) {
	for i := 0; i < len(reqs); {
		if reqs[i].fn != nil {
			reqs[i].done <- reqs[i].fn()
			i++
			continue
		}
		j := i
		for j < len(reqs) && reqs[j].fn == nil {
			j++
		}
		c.commitGroup(reqs[i:j])
		i = j
	}
}

// commitGroup durably commits a group of write requests with one WAL sync,
// then applies them to the memtable and acknowledges every waiter. Any
// failure before the acknowledgement point fails the whole group with the
// same error (poison fan-out): the group's records may be partially on disk,
// which is exactly the "maybe" state an unacknowledged write is allowed to
// occupy.
func (c *committer) commitGroup(group []*commitReq) {
	db := c.db
	fail := func(err error) {
		for _, r := range group {
			r.done <- err
		}
	}
	// A poisoned WAL (earlier append/sync failure, possibly torn bytes on
	// disk) must be rotated before accepting new records; flushing first
	// makes everything acknowledged so far durable in an SSTable.
	if db.wal.poisoned() {
		if err := db.flush(); err != nil {
			fail(fmt.Errorf("kv: wal unavailable: %w", err))
			return
		}
	}
	var bytes, count int64
	for _, r := range group {
		for _, e := range r.entries {
			n, err := db.wal.append(e.kind, e.key, e.value)
			if err != nil {
				fail(fmt.Errorf("kv: wal append: %w", err))
				return
			}
			bytes += int64(n)
			count++
		}
	}
	if db.opts.SyncWrites {
		if err := db.wal.sync(); err != nil {
			fail(fmt.Errorf("kv: wal sync: %w", err))
			return
		}
		db.stats.WALSyncs.Add(1)
	}
	db.stats.GroupCommits.Add(1)
	db.stats.BytesWritten.Add(bytes)
	db.stats.Puts.Add(count)
	db.mu.Lock()
	for _, r := range group {
		for _, e := range r.entries {
			// Entries were copied at enqueue time; the memtable can own them.
			db.mem.set(e.key, e.value, e.kind)
		}
	}
	// The flush threshold covers the active list plus the frozen stack
	// (snapshots freeze without writing anything to disk, so frozen bytes
	// still occupy memory and still live only in the WAL), and a deep frozen
	// stack forces a flush on its own so scan-heavy workloads cannot pile up
	// an unbounded number of memtable merge sources.
	full := db.mem.bytes+db.frozenBytes >= db.opts.MemtableBytes ||
		len(db.frozen) >= maxFrozenMemtables
	db.mu.Unlock()
	var err error
	if full {
		// The records are durable (in the WAL) either way; a flush failure
		// still fails the group so the caller knows the store is degraded,
		// matching the pre-group-commit Put contract.
		err = db.flush()
	}
	for _, r := range group {
		r.done <- err
	}
}
