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
// order within the batch. The slice is owned by the consumer.
type ScanBatch struct {
	RegionID int
	Entries  []kv.Entry
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
// region, in region order, fails the scan with its *RegionError.
func (c *Cluster) scanRegions(ctx context.Context, filter Filter, tasks []regionTask, start time.Time, emit func(ScanBatch) error) (*ScanResult, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	parallelism := c.cfg.Parallelism
	if parallelism <= 0 {
		parallelism = len(tasks)
	}
	acct := &scanAccount{}
	out := make(chan ScanBatch, streamQueueDepth)
	errs := make([]error, len(tasks))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t regionTask) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-pctx.Done():
				errs[i] = &emitError{pctx.Err()}
				return
			}
			defer func() { <-sem }()
			errs[i] = c.scanRegion(pctx, t, filter, acct, func(b ScanBatch) error {
				select {
				case out <- b:
					return nil
				case <-pctx.Done():
					return pctx.Err()
				}
			})
		}(i, t)
	}
	go func() { wg.Wait(); close(out) }()

	var consumerErr error
	for b := range out {
		if consumerErr != nil {
			continue // drain so blocked producers observe the cancel promptly
		}
		if err := emit(b); err != nil {
			consumerErr = err
			cancel()
		}
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
// region's own failure.
func (c *Cluster) scanRegion(ctx context.Context, t regionTask, filter Filter, acct *scanAccount, send func(ScanBatch) error) error {
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
	// allocated on the first accepted row, not up front.
	var batch []kv.Entry
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		var shipped int64
		for _, e := range batch {
			shipped += int64(len(e.Key) + len(e.Value))
		}
		if err := send(ScanBatch{RegionID: t.region.id, Entries: batch}); err != nil {
			return &emitError{err}
		}
		acct.rowsReturned.Add(int64(len(batch)))
		acct.bytesShipped.Add(shipped)
		batch = nil // the consumer owns the delivered slice
		return nil
	}

	// One iterator walks every range, as one HBase scanner serves a region's
	// multi-range scan; rows scanned are counted here and added once.
	it := t.snap.ScanRanges(t.ranges)
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
		e := kv.Entry{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		}
		if batch == nil {
			batch = make([]kv.Entry, 0, batchRows)
		}
		if batch = append(batch, e); len(batch) >= batchRows {
			err = flush()
		}
	}
	if err == nil {
		err = it.Err()
	}
	_ = it.Close()
	acct.rowsScanned.Add(scanned)
	if err != nil {
		return err
	}
	return flush()
}
