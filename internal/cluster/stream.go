package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kv"
)

// This file is the region side of the scan path. (*Snapshot).ScanStream
// (snapshot.go) delivers rows in bounded batches as regions produce them, so a
// consumer (the refinement stage) can overlap its work with the scan instead
// of waiting behind a collect-everything barrier, and per-scan memory stays
// O(batch × queue) instead of O(rows shipped).

// batchRows caps the rows delivered per emit call.
const batchRows = 64

// streamQueueDepth is the buffer (in batches) between the parallel region
// producers and the emit callback. It is the only buffering in the stream: a
// stalled consumer blocks the region scans after at most this many in-queue
// batches plus one in-flight batch per region.
const streamQueueDepth = 2

// StreamRequest is ScanRequest under the name benchmark/trace.go compiles
// against (`cluster.StreamRequest{ScanRequest: …}`); it has no fields of its
// own. Like store.StreamOptions it is benchmark-pinned and goes when ROADMAP
// item 1(C)'s benchmark PR moves that call.
type StreamRequest struct {
	ScanRequest
}

// ScanBatch is one unit of streamed rows, all from a single region, in key
// order within the batch. Entries is valid only during the emit call that
// receives it: the stream recycles the slice once emit returns. The key and
// value bytes of each entry are the consumer's to keep.
type ScanBatch struct {
	RegionID int
	Entries  []kv.Entry
}

// batchPool recycles scan batches. A batch is taken at a region call's first
// accepted row and put back once emit has returned, or once the stream has
// dropped it; its entries are cleared first, so a pooled batch holds no row.
var batchPool = sync.Pool{New: func() any {
	return &ScanBatch{Entries: make([]kv.Entry, 0, batchRows)}
}}

// recycle clears b's entries and returns it to batchPool.
func recycle(b *ScanBatch) {
	clear(b.Entries)
	b.Entries = b.Entries[:0]
	batchPool.Put(b)
}

// scanAccount accumulates scan accounting incrementally across concurrent
// region producers; scanRegions folds it into the final ScanResult.
type scanAccount struct {
	rowsScanned  atomic.Int64
	rowsReturned atomic.Int64
	bytesShipped atomic.Int64
	rpcs         atomic.Int64
}

func (a *scanAccount) result(elapsed time.Duration) *ScanResult {
	return &ScanResult{
		RowsScanned:  a.rowsScanned.Load(),
		RowsReturned: a.rowsReturned.Load(),
		BytesShipped: a.bytesShipped.Load(),
		RPCs:         a.rpcs.Load(),
		Elapsed:      elapsed,
	}
}

// emitError marks an error that came from the consumer (the emit callback or
// the stream plumbing), not from the region itself: it is never reported as a
// RegionError.
type emitError struct{ err error }

func (e *emitError) Error() string { return e.err.Error() }
func (e *emitError) Unwrap() error { return e.err }

// scanRegions scans the tasks' regions concurrently (bounded by
// Config.Parallelism, default one worker per region), funneling batches
// through a bounded channel to the single emit caller. The first failing
// region, in region order, fails the scan with its *RegionError. With a
// cursor (cur not nil) each region call walks its region's slot.
func (c *Cluster) scanRegions(ctx context.Context, filter Filter, tasks []regionTask, cur *Cursor, start time.Time, emit func(ScanBatch) error) (*ScanResult, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	parallelism := c.cfg.Parallelism
	if parallelism <= 0 {
		parallelism = len(tasks)
	}
	acct := &scanAccount{}
	out := make(chan *ScanBatch, streamQueueDepth)
	errs := make([]error, len(tasks))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-pctx.Done():
				errs[i] = &emitError{pctx.Err()}
				return
			}
			defer func() { <-sem }()
			t := tasks[i]
			var slot *cursorSlot
			if cur != nil {
				slot = &cur.slots[t.region.id]
			}
			errs[i] = c.scanRegion(pctx, t, slot, filter, acct, func(b *ScanBatch) error {
				select {
				case out <- b:
					return nil
				case <-pctx.Done():
					recycle(b)
					return pctx.Err()
				}
			})
		}(i)
	}
	go func() { wg.Wait(); close(out) }()

	var consumerErr error
	for b := range out {
		if consumerErr == nil { // else drain so blocked producers observe the cancel promptly
			if err := emit(*b); err != nil {
				consumerErr = err
				cancel()
			}
		}
		recycle(b)
	}
	if consumerErr != nil {
		return nil, consumerErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		var ee *emitError
		if err != nil && !errors.As(err, &ee) { // an emitError is a stream-side abort
			return nil, regionError(tasks[i].region, err)
		}
	}
	return acct.result(time.Since(start)), nil
}

// scanRegion is one region "RPC": one iterator over every clipped range,
// the server-side filter applied to each row, accepted rows delivered in
// batches. ctx is observed between rows (amortized every 256). A
// consumer-side failure comes back as an *emitError; anything else is the
// region's own failure. send takes over each batch it is given. The call
// walks slot's iterator when slot is not nil, and a new one otherwise.
func (c *Cluster) scanRegion(ctx context.Context, t regionTask, slot *cursorSlot, filter Filter, acct *scanAccount, send func(*ScanBatch) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if rpcLatency := c.cfg.RPCLatency; rpcLatency > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(rpcLatency):
		}
	}
	if t.region.handlers != nil {
		// A bounded handler pool serves each region: scans queue once the
		// region is saturated, which is what makes too few shards hurt.
		select {
		case t.region.handlers <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		defer func() { <-t.region.handlers }()
	}
	c.rpcs.Add(1)
	acct.rpcs.Add(1)

	// Most region calls of a best-first search ship nothing, so the batch is
	// taken on the first accepted row, not up front.
	var batch *ScanBatch
	flush := func() error {
		if batch == nil {
			return nil
		}
		rows, shipped := int64(len(batch.Entries)), int64(0)
		for _, e := range batch.Entries {
			shipped += int64(len(e.Key) + len(e.Value))
		}
		err := send(batch)
		batch = nil // send took it over
		if err != nil {
			return &emitError{err}
		}
		acct.rowsReturned.Add(rows)
		acct.bytesShipped.Add(shipped)
		return nil
	}

	// One iterator walks every range, as one HBase scanner serves a region's
	// multi-range scan; rows scanned are counted here and added once.
	it := slot.open(t)
	var scanned int64
	var err error
	for err == nil && it.Next() {
		if scanned++; scanned%256 == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if filter != nil && !filter(it.Key(), it.Value()) {
			continue
		}
		// The iterator's bytes are the store's own: a shipped row is copied
		// here, once, key and value into one array, each slice capped at its
		// own length.
		e := shipRow(it.Key(), it.Value())
		if batch == nil {
			batch = batchPool.Get().(*ScanBatch)
			batch.RegionID = t.region.id
		}
		if batch.Entries = append(batch.Entries, e); len(batch.Entries) >= batchRows {
			err = flush()
		}
	}
	if err == nil {
		err = it.Err()
	}
	slot.done(it)
	acct.rowsScanned.Add(scanned)
	if err != nil {
		return err
	}
	return flush()
}

// shipRow copies a row the region ships into one array of exactly its size:
// the shipped bytes pin neither the block nor the memtable node they came from.
func shipRow(key, value []byte) kv.Entry {
	buf := make([]byte, len(key)+len(value))
	n := copy(buf, key)
	copy(buf[n:], value)
	return kv.Entry{Key: buf[:n:n], Value: buf[n:]}
}
