package query

// The streaming pipeline: scan and refinement as overlapped stages with
// bounded memory.
//
//   region scans ──batches──▶ candidate queue ──rows──▶ refine pool workers
//   (cluster.ScanStream,        (bounded)                (decode, work, then
//    on the caller)                                        merge under its mutex)
//
// The queue's capacity bounds the candidates resident between the scan and
// the merge to depth + workers + 1 — depth queued, one in the scan's hand,
// one per worker from the moment it takes a row until its merge returns — so
// peak per-query memory is O(depth + workers), not O(candidates). A full
// queue blocks the scan: backpressure from refine all the way into the
// region scans.
//
// Determinism: outcomes merge in whatever order workers finish them, and the
// answer does not depend on it: threshold and range keep every row the exact
// comparison admits and sort by row key at the end, so any interleaving,
// worker count or queue depth yields the same results. (Top-k and nearest do
// not stream; see bestfirst.go.)

import (
	"bytes"
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/xzstar"
)

// keyedResult pairs a result with its row key so threshold/range queries can
// restore key order after an unordered parallel scan.
type keyedResult struct {
	key []byte
	res Result
}

// refineRanges is the scan-and-refine stage threshold and range share: scan
// the planned ranges through the pushed-down filter (window and pushed, see
// wrapWithWindow), run work over every shipped row, and hand each kept
// outcome to sink as it merges — or, with a nil sink, collect them and return
// them in row-key order. Row keys are unique (value ‖ shard ‖ id), so that
// order is total.
func (e *Engine) refineRanges(ctx context.Context, snap *store.Snapshot, stats *Stats, ranges []xzstar.ValueRange,
	window TimeWindow, pushed rowFilter, work refineWork, sink func(Result) error) ([]Result, *Stats, error) {
	stats.Ranges = len(ranges)
	if len(ranges) == 0 {
		return nil, stats, nil
	}
	filter, walked := wrapWithWindow(window, pushed)
	scan := func(sctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
		return snap.ScanRangesStream(sctx, ranges, filter, 0, store.StreamOptions{}, emit)
	}
	var out []keyedResult
	err := e.refineFromScan(ctx, stats, scan, work, func(o refineOutcome) error {
		if !o.keep {
			return nil
		}
		stats.Results++
		r := Result{ID: o.rec.ID, Distance: o.dist, Points: o.rec.Points}
		if sink != nil {
			return sink(r)
		}
		out = append(out, keyedResult{key: o.key, res: r})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stats.RowsWalked = *walked
	if len(out) == 0 {
		return nil, stats, nil
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].key, out[j].key) < 0
	})
	rs := make([]Result, len(out))
	for i := range out {
		rs[i] = out[i].res
	}
	return rs, stats, nil
}

// scanFunc is the scan a query path hands to refineFromScan: it runs the
// storage scan, delivering row batches to emit, and returns the scan's
// accounting (non-nil unless it also returns an error).
type scanFunc func(ctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error)

// streamQueueDepth resolves the candidate-queue depth: enough to keep the
// pool busy without hoarding rows, unless a test pinned streamDepth.
func (e *Engine) streamQueueDepth(workers int) int {
	if e.streamDepth > 0 {
		return e.streamDepth
	}
	d := 4 * workers
	if d < 16 {
		d = 16
	}
	return d
}

// refineFromScan feeds the refine pool from the live scan: the scan runs on
// the calling goroutine and pushes every shipped row into the bounded queue
// the workers take from. Scan accounting (ScanTime, absorbScan, the stream
// counters) is folded into stats here, refinement accounting by the pool.
func (e *Engine) refineFromScan(ctx context.Context, stats *Stats, scan scanFunc, work refineWork, merge refineMerge) error {
	workers := e.refineParallelism()
	var (
		queue   = make(chan kv.Entry, e.streamQueueDepth(workers))
		gauge   atomic.Int64 // candidates resident between scan and merge
		peak    int64
		batches int64
		stall   time.Duration // time blocked on the full queue (backpressure)
	)
	p := startRefine(ctx, stats, workers, func(ctx context.Context) (kv.Entry, bool) {
		select {
		case en, ok := <-queue:
			return en, ok
		case <-ctx.Done():
			return kv.Entry{}, false
		}
	}, work, func(o refineOutcome) error {
		gauge.Add(-1)
		return merge(o)
	})

	// A failed scan cancels the pool, so its error is not kept waiting behind
	// the rows already queued; a failed pool cancels the scan.
	t0 := time.Now()
	res, err := scan(p.ctx, func(batch []kv.Entry) error {
		batches++
		for _, en := range batch {
			peak = max(peak, gauge.Add(1))
			tw := time.Now()
			select {
			case queue <- en:
			case <-p.ctx.Done():
				return p.ctx.Err()
			}
			stall += time.Since(tw)
		}
		return nil
	})
	elapsed := time.Since(t0)
	if err != nil {
		p.cancel()
	}
	close(queue)
	perr := p.wait()
	stats.StreamBatches += batches
	stats.StreamStallTime += stall
	stats.StreamPeakDepth = max(stats.StreamPeakDepth, int(peak))
	if perr != nil {
		return perr
	}
	if err != nil {
		return err
	}
	stats.ScanTime += elapsed
	stats.absorbScan(res)
	return nil
}
