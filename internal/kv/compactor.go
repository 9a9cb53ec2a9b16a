package kv

import (
	"context"
	"errors"
	"sync"
)

// Background compaction. SSTables merge on one supervised background
// goroutine, so no writer waits for a merge: the committer schedules a round
// after a flush leaves the table count at or above CompactAt, the compactor
// does the heavy merge I/O off every lock, and only the final install — the
// in-memory table-set swap plus the manifest commit — runs back on the
// committer goroutine, serialized with flushes without holding db.mu across
// I/O.
//
// A failed round marks the store degraded in Stats at once instead of
// wedging writers: writes keep committing, reads keep merging the unmerged
// tables, and the next successful round clears the flag. One goroutine runs
// at most one merge at a time — that is the rate limit.

// compactRequest is a synchronous full-compaction demand (DB.Compact).
type compactRequest struct {
	done chan error
}

type compactor struct {
	db *DB

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on any state change below
	pending bool       // an automatic (tier-picked) round is scheduled
	full    []*compactRequest
	running bool
	stopped bool
}

func newCompactor(db *DB) *compactor {
	c := &compactor{db: db}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// schedule requests an automatic round. Called by the committer after a
// flush; coalesces with an already-pending request.
func (c *compactor) schedule() {
	c.mu.Lock()
	c.pending = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// compactAll runs a full compaction and waits for its result (DB.Compact).
func (c *compactor) compactAll() error {
	req := &compactRequest{done: make(chan error, 1)}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ErrClosed
	}
	c.full = append(c.full, req)
	c.cond.Broadcast()
	c.mu.Unlock()
	return <-req.done
}

// waitIdle blocks until no round is scheduled or running. DB.Flush uses it so
// an explicit flush observes the compaction it may have triggered.
func (c *compactor) waitIdle() {
	c.mu.Lock()
	for (c.pending || c.running || len(c.full) > 0) && !c.stopped {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// stop wakes the loop for shutdown; queued full-compaction requests fail with
// ErrClosed. The caller cancels db.bgCtx alongside so an in-flight merge
// aborts promptly.
func (c *compactor) stop() {
	c.mu.Lock()
	c.stopped = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// loop is the supervisor: wait for work, run one round, publish the outcome.
// Joined by DB.Close through db.bg.
func (c *compactor) loop() {
	for {
		c.mu.Lock()
		for !c.pending && len(c.full) == 0 && !c.stopped {
			c.cond.Wait()
		}
		if c.stopped {
			reqs := c.full
			c.full = nil
			c.mu.Unlock()
			for _, r := range reqs {
				r.done <- ErrClosed
			}
			return
		}
		reqs := c.full
		c.full = nil
		c.pending = false
		c.running = true
		c.mu.Unlock()

		// A queued full request subsumes any pending automatic round.
		n := compactPickTier
		if len(reqs) > 0 {
			n = compactEverything
		}
		err := c.runRound(n)
		for _, r := range reqs {
			r.done <- err
		}

		c.mu.Lock()
		c.running = false
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// runRound runs one compaction and maintains the degraded-health flag.
func (c *compactor) runRound(n int) error {
	db := c.db
	err := db.compactTables(n)
	switch {
	case err == nil:
		db.stats.CompactDegraded.Store(false)
	case errors.Is(err, ErrClosed) || errors.Is(err, context.Canceled):
		// Shutdown raced the round; not a health signal.
	default:
		db.stats.CompactFailures.Add(1)
		db.stats.CompactDegraded.Store(true)
	}
	return err
}
