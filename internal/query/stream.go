package query

// The streaming pipeline: scan and refinement as overlapped stages with
// bounded memory.
//
//   region scans ──batches──▶ candidate queue ──rows──▶ workers ──outcomes──▶ merge
//   (cluster.ScanStream)        (bounded)                        (bounded)  (caller, as
//                                                                        they complete)
//
// The two channel capacities bound the candidates resident between the scan
// and the merge to depth + 2·workers + 2 — depth queued, one in the producer's
// hand, one in flight and one finished outcome parked per worker, one being
// merged — so peak per-query memory is O(depth + workers), not O(candidates).
// A full queue blocks the producer: backpressure from refine all the way into
// the region scans.
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
	stats.RowsWalked = walked.Load()
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

// scanFunc is the producer half a query path hands to the pipeline: it runs
// the storage scan, delivering row batches to emit, and returns the scan's
// accounting (non-nil unless it also returns an error).
type scanFunc func(ctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error)

// streamDone is one candidate's completion, heading for the merge loop.
type streamDone struct {
	out refineOutcome
	err error // decode failure
}

// scanOutcome is the producer's final report.
type scanOutcome struct {
	res     *cluster.ScanResult
	err     error
	elapsed time.Duration
	stall   time.Duration // time blocked on the full candidate queue (backpressure)
	batches int64
	peak    int64 // most candidates ever resident between scan and merge
}

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

// refineFromScan is the streaming executor: one producer feeds the bounded
// queue from the live scan, workers decode and refine, and the merge loop (on
// the calling goroutine) folds outcomes as they complete. Scan accounting
// (ScanTime, absorbScan) and refinement accounting (RefineTime wall-clock,
// RefineCPUTime summed worker busy time and its DecodeTime / KernelTime
// split, RefineWorkers pool size) are folded into stats.
func (e *Engine) refineFromScan(ctx context.Context, stats *Stats, scan scanFunc, work refineWork, merge refineMerge) error {
	workers := e.refineParallelism()
	if workers > stats.RefineWorkers {
		stats.RefineWorkers = workers
	}

	start := time.Now()
	defer func() { stats.RefineTime += time.Since(start) }()

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		queue = make(chan kv.Entry, e.streamQueueDepth(workers))
		// One slot per worker: a finished outcome parks here while the merge
		// loop is busy (a sink writing to a socket), and its worker moves on.
		done    = make(chan streamDone, workers)
		scanRes = make(chan scanOutcome, 1)
		gauge   atomic.Int64 // candidates resident between scan and merge
		cpu     atomic.Int64 // summed worker busy time
		decode  atomic.Int64 // the share of it inside store.DecodeRow
		kernel  atomic.Int64 // the share of it inside work
	)

	// Producer: run the scan, feeding the queue row by row. A failed scan
	// cancels the pipeline so its error is not kept waiting behind the rows
	// already queued.
	go func() {
		var so scanOutcome
		t0 := time.Now()
		so.res, so.err = scan(pctx, func(batch []kv.Entry) error {
			so.batches++
			for _, en := range batch {
				if g := gauge.Add(1); g > so.peak {
					so.peak = g
				}
				tw := time.Now()
				select {
				case queue <- en:
				case <-pctx.Done():
					return pctx.Err()
				}
				so.stall += time.Since(tw)
			}
			return nil
		})
		so.elapsed = time.Since(t0)
		if so.err != nil {
			cancel()
		}
		close(queue)
		scanRes <- so
	}()

	// Workers: decode + work, until the queue closes or the pipeline aborts.
	// The last one out closes done, so the merge loop wakes straight from it.
	var live atomic.Int64
	live.Store(int64(workers))
	for w := 0; w < workers; w++ {
		go func() {
			var busy, decoding, working time.Duration
			var row []float64 // this worker's DP scratch
			defer func() {
				cpu.Add(int64(busy))
				decode.Add(int64(decoding))
				kernel.Add(int64(working))
				if live.Add(-1) == 0 {
					close(done)
				}
			}()
			for c := range queue {
				if pctx.Err() != nil {
					return
				}
				t0 := time.Now()
				var d streamDone
				rec, err := store.DecodeRow(c.Value)
				t1 := time.Now()
				decoding += t1.Sub(t0)
				if err != nil {
					d.err = err
				} else {
					d.out, row = work(rec, row)
					d.out.key = c.Key
					working += time.Since(t1)
				}
				busy += time.Since(t0)
				select {
				case done <- d:
				case <-pctx.Done():
					return
				}
			}
		}()
	}

	// Merge loop, on the calling goroutine. done closes once the scan has
	// ended and every worker has drained the queue (or seen the abort).
	var firstErr error
merging:
	for firstErr == nil {
		select {
		case d, ok := <-done:
			if !ok {
				break merging
			}
			if firstErr = d.err; firstErr == nil {
				stats.Refined++
				firstErr = merge(d.out)
				gauge.Add(-1)
			}
		case <-ctx.Done():
			firstErr = ctx.Err()
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err() // workers quit on cancellation without reporting
	}
	if firstErr != nil {
		cancel()
		for range done { // wait the workers out; their outcomes are moot
		}
	}
	// The producer always reports: its emit callback and the region scans both
	// observe pctx, which is cancelled on any abort.
	scanned := <-scanRes
	stats.RefineCPUTime += time.Duration(cpu.Load())
	stats.DecodeTime += time.Duration(decode.Load())
	stats.KernelTime += time.Duration(kernel.Load())
	stats.StreamBatches += scanned.batches
	stats.StreamStallTime += scanned.stall
	if p := int(scanned.peak); p > stats.StreamPeakDepth {
		stats.StreamPeakDepth = p
	}
	if firstErr != nil {
		return firstErr
	}
	if scanned.err != nil {
		return scanned.err
	}
	stats.ScanTime += scanned.elapsed
	stats.absorbScan(scanned.res)
	return nil
}
