package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
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

// A failed region scan whose error is transient (exposes `Transient() bool` =
// true) is retried retryAttempts times; the backoff before the first retry is
// retryBaseDelay and doubles per attempt. A region that keeps failing
// therefore costs its scan at most 1 + 2 + 4 = 7 ms of backoff.
const (
	retryAttempts  = 3
	retryBaseDelay = time.Millisecond
)

// StreamRequest is ScanRequest under the name benchmark/trace.go compiles
// against (`cluster.StreamRequest{ScanRequest: …}`); it has no fields of its
// own. Like store.StreamOptions it is benchmark-pinned and goes when ROADMAP
// item 3(a)'s benchmark PR moves that call.
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
	retries      atomic.Int64
}

func (a *scanAccount) result(elapsed time.Duration) *ScanResult {
	return &ScanResult{
		RowsScanned:  a.rowsScanned.Load(),
		RowsReturned: a.rowsReturned.Load(),
		BytesShipped: a.bytesShipped.Load(),
		RPCs:         a.rpcs.Load(),
		Retries:      a.retries.Load(),
		Elapsed:      elapsed,
	}
}

// emitError marks an error that came from the consumer (the emit callback or
// the stream plumbing), not from the region itself: it is never retried and
// never reported as a RegionError.
type emitError struct{ err error }

func (e *emitError) Error() string { return e.err.Error() }
func (e *emitError) Unwrap() error { return e.err }

// scanRegions scans the tasks' regions concurrently (bounded by
// Config.Parallelism, default one worker per region), funneling batches
// through a bounded channel to the single emit caller.
func (c *Cluster) scanRegions(ctx context.Context, req ScanRequest, tasks []regionTask, start time.Time, emit func(ScanBatch) error) (*ScanResult, error) {
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
			errs[i] = c.scanRegionStream(pctx, t, req.Filter, acct, func(b ScanBatch) error {
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
	var regionErrs []*RegionError
	for i, err := range errs {
		if err == nil {
			continue
		}
		var ee *emitError
		if errors.As(err, &ee) {
			continue // stream-side abort, not the region's failure
		}
		re := regionError(tasks[i].region, err)
		if !req.AllowPartial {
			return nil, re
		}
		regionErrs = append(regionErrs, re)
	}
	res := acct.result(time.Since(start))
	res.RegionErrors = regionErrs
	return res, nil
}

// regionStreamState carries resume information across retry attempts of one
// region scan: the last key successfully delivered downstream.
type regionStreamState struct {
	lastKey  []byte
	haveLast bool
}

// resumeClip narrows rng to start just past the last delivered key. The
// second result is false when the range is entirely behind the resume point.
func (st *regionStreamState) resumeClip(rng KeyRange) (KeyRange, bool) {
	if !st.haveLast {
		return rng, true
	}
	// The smallest possible key strictly greater than lastKey.
	succ := append(append([]byte(nil), st.lastKey...), 0)
	if rng.End != nil && bytes.Compare(rng.End, succ) <= 0 {
		return rng, false
	}
	if rng.Start == nil || bytes.Compare(rng.Start, succ) < 0 {
		rng.Start = succ
	}
	return rng, true
}

// scanRegionStream runs one region's streaming scan with transient-retry and
// resume: after a transient failure the next attempt resumes just past the
// last delivered key, so the consumer sees every surviving row exactly once.
// Retries are accounted as they happen, so a region that ultimately fails
// still reports the attempts it burned.
func (c *Cluster) scanRegionStream(ctx context.Context, t regionTask, filter Filter, acct *scanAccount, send func(ScanBatch) error) error {
	delay := retryBaseDelay
	st := &regionStreamState{}
	for attempt := 0; ; attempt++ {
		err := c.scanRegionOnce(ctx, t, filter, st, acct, send)
		if err == nil {
			return nil
		}
		var ee *emitError
		if errors.As(err, &ee) {
			return err // consumer aborted; not the region's fault
		}
		if attempt >= retryAttempts || !isTransient(err) {
			return err
		}
		// Equal jitter: half the delay is fixed, half uniformly random, so
		// regions that failed together (one sick store fans out to many
		// region scans) retry spread out instead of in lockstep, while the
		// nominal delay still bounds the wait. The timer (rather than
		// time.After) is stopped on cancellation so an aborted backoff frees
		// it immediately.
		d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
		delay *= 2
		acct.retries.Add(1)
		c.retries.Add(1)
	}
}

// scanRegionOnce is one region "RPC" attempt: scan every clipped range from
// the resume point, apply the server-side filter, and deliver accepted rows
// in batches. ctx is observed between rows (amortized every 256). Delivered
// rows advance st; rows buffered but not yet delivered when an error hits are
// re-scanned (and re-delivered) by the next attempt.
func (c *Cluster) scanRegionOnce(ctx context.Context, t regionTask, filter Filter, st *regionStreamState, acct *scanAccount, send func(ScanBatch) error) error {
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
		// Shipped bytes/rows count at delivery, so a batch lost to a failed
		// attempt is not double-counted when the retry re-ships it.
		acct.rowsReturned.Add(int64(len(batch)))
		acct.bytesShipped.Add(shipped)
		st.lastKey = append(st.lastKey[:0], batch[len(batch)-1].Key...)
		st.haveLast = true
		batch = nil // the consumer owns the delivered slice
		return nil
	}

	scanned := 0
	for _, rng := range t.ranges {
		rng, ok := st.resumeClip(rng)
		if !ok {
			continue
		}
		it := t.snap.Scan(rng.Start, rng.End)
		for it.Next() {
			scanned++
			if scanned%256 == 0 {
				if err := ctx.Err(); err != nil {
					_ = it.Close()
					return err
				}
			}
			acct.rowsScanned.Add(1)
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
			batch = append(batch, e)
			if len(batch) >= batchRows {
				if err := flush(); err != nil {
					_ = it.Close()
					return err
				}
			}
		}
		if err := it.Err(); err != nil {
			_ = it.Close()
			return err
		}
		_ = it.Close()
	}
	return flush()
}
