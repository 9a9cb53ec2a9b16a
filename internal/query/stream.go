package query

// The streaming pipeline: scan and refinement as overlapped stages with
// bounded memory.
//
//   region scans ──batches──▶ candidate queue ──rows──▶ workers ──▶ merge
//                    (cluster.ScanStream)    (bounded)         (caller, in
//                                                              dispatch order)
//
// A token semaphore bounds the candidates outstanding anywhere between the
// scan and the merge (queued + in-flight + completed-but-unmerged) to the
// stream depth, so peak per-query memory is O(depth), not O(candidates): the
// scan producer acquires one token per row and the merge loop releases it
// once the row's outcome has been folded in. A full queue therefore blocks
// the producer — backpressure from refine all the way into the region scans.
//
// Determinism: outcomes merge strictly in dispatch (scan-emission) order via
// a reorder buffer. Threshold/range sort their results by row key at the end;
// top-k scans each index space Ordered (region-sequential = global key
// order), so its merge order is the key order whatever the pool size. The
// shared kth-distance bound only ever tightens and every rejection it allows
// is backed by a lower-bound proof, so any interleaving yields the results
// of the one-worker, depth-one run — a looser (stale) bound only costs wasted
// work.

import (
	"bytes"
	"context"
	"sort"
	"sync"
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
// the planned ranges through the pushed-down filter, run work over every
// shipped row, and hand each kept outcome to sink as it merges — or, with a
// nil sink, collect them and return them in row-key order. Row keys are
// unique (value ‖ shard ‖ id), so that order is total.
func (e *Engine) refineRanges(ctx context.Context, snap *store.Snapshot, stats *Stats, ranges []xzstar.ValueRange,
	filter func(key, value []byte) bool, work refineWork, sink func(Result) error) ([]Result, *Stats, error) {
	stats.Ranges = len(ranges)
	if len(ranges) == 0 {
		return nil, stats, nil
	}
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

// streamCand is one candidate row traveling from the scan to a worker.
type streamCand struct {
	seq   int // dispatch order; the merge loop restores it
	key   []byte
	value []byte
}

// streamDone is one candidate's completion, heading for the merge loop.
type streamDone struct {
	seq int
	out refineOutcome
	err error // decode failure
}

// scanOutcome is the producer's final report.
type scanOutcome struct {
	res     *cluster.ScanResult
	err     error
	n       int // candidates dispatched
	elapsed time.Duration
	stall   time.Duration // time blocked on the token semaphore (backpressure)
	batches int64
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

// refineFromScan is the streaming executor: workers pull candidates from the
// live scan through the bounded queue and the merge loop (on the calling
// goroutine) folds outcomes in dispatch order. Scan accounting (ScanTime,
// absorbScan) and refinement accounting (RefineTime wall-clock, RefineCPUTime
// summed worker busy time, RefineWorkers pool size) are folded into stats.
func (e *Engine) refineFromScan(ctx context.Context, stats *Stats, scan scanFunc, work refineWork, merge refineMerge) error {
	workers := e.refineParallelism()
	if workers > stats.RefineWorkers {
		stats.RefineWorkers = workers
	}
	depth := e.streamQueueDepth(workers)

	start := time.Now()
	defer func() { stats.RefineTime += time.Since(start) }()

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		queue   = make(chan streamCand, depth)
		done    = make(chan streamDone, depth+workers)
		scanRes = make(chan scanOutcome, 1)
		tokens  = make(chan struct{}, depth)
		gauge   atomic.Int64 // candidates outstanding between scan and merge
		peak    atomic.Int64
		stop    atomic.Bool
		cpu     atomic.Int64
	)

	// Producer: run the scan, feeding rows one token at a time.
	go func() {
		seq := 0
		var stall time.Duration
		var batches int64
		t0 := time.Now()
		res, err := scan(pctx, func(batch []kv.Entry) error {
			batches++
			for _, en := range batch {
				tw := time.Now()
				select {
				case tokens <- struct{}{}:
				case <-pctx.Done():
					return pctx.Err()
				}
				stall += time.Since(tw)
				if g := gauge.Add(1); g > peak.Load() {
					peak.Store(g) // producer is the only incrementer, so no CAS race
				}
				select {
				case queue <- streamCand{seq: seq, key: en.Key, value: en.Value}:
				case <-pctx.Done():
					return pctx.Err()
				}
				seq++
			}
			return nil
		})
		close(queue)
		scanRes <- scanOutcome{res: res, err: err, n: seq, elapsed: time.Since(t0), stall: stall, batches: batches}
	}()

	// Workers decode + work; outcomes go to the merge loop. With a single
	// worker the merge loop consumes the queue itself (below), keeping the
	// one-worker path free of extra goroutines beyond the producer.
	var wg sync.WaitGroup
	if workers > 1 {
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				var busy time.Duration
				defer func() { cpu.Add(int64(busy)) }()
				for c := range queue {
					if stop.Load() || pctx.Err() != nil {
						return
					}
					t0 := time.Now()
					d := streamDone{seq: c.seq}
					rec, err := store.DecodeRow(c.value)
					if err != nil {
						d.err = err
					} else {
						d.out = work(rec)
						d.out.key = c.key
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
	}

	release := func() {
		gauge.Add(-1)
		<-tokens
	}

	var firstErr error
	abort := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		stop.Store(true)
		cancel()
	}

	// Merge loop, on the calling goroutine.
	var scanned *scanOutcome
	if workers == 1 {
		var busy time.Duration
		q := queue
		for firstErr == nil {
			if scanned != nil && q == nil {
				break
			}
			select {
			case c, ok := <-q:
				if !ok {
					q = nil
					continue
				}
				if err := ctx.Err(); err != nil {
					abort(err)
					continue
				}
				t0 := time.Now()
				rec, err := store.DecodeRow(c.value)
				if err != nil {
					abort(err)
					continue
				}
				o := work(rec)
				o.key = c.key
				busy += time.Since(t0)
				stats.Refined++
				if err := merge(o); err != nil {
					abort(err)
					continue
				}
				release()
			case so := <-scanRes:
				scanned = &so
				scanRes = nil
				if so.err != nil {
					abort(so.err)
				}
			case <-ctx.Done():
				abort(ctx.Err())
			}
		}
		cpu.Add(int64(busy))
	} else {
		pending := make(map[int]streamDone)
		frontier := 0
		for firstErr == nil {
			if scanned != nil && frontier == scanned.n {
				break
			}
			select {
			case d := <-done:
				pending[d.seq] = d
				for firstErr == nil {
					nd, ok := pending[frontier]
					if !ok {
						break
					}
					delete(pending, frontier)
					if nd.err != nil {
						abort(nd.err)
						break
					}
					stats.Refined++
					if err := merge(nd.out); err != nil {
						abort(err)
						break
					}
					release()
					frontier++
				}
			case so := <-scanRes:
				scanned = &so
				scanRes = nil
				if so.err != nil {
					abort(so.err)
				}
			case <-ctx.Done():
				abort(ctx.Err())
			}
		}
	}

	if firstErr != nil {
		stop.Store(true)
		cancel()
	}
	wg.Wait()
	if scanned == nil {
		// The producer always reports: its emit callback and the region scans
		// both observe pctx, which is cancelled on any abort.
		so := <-scanRes
		scanned = &so
	}
	stats.RefineCPUTime += time.Duration(cpu.Load())
	stats.StreamBatches += scanned.batches
	stats.StreamStallTime += scanned.stall
	if p := int(peak.Load()); p > stats.StreamPeakDepth {
		stats.StreamPeakDepth = p
	}
	if firstErr != nil {
		return firstErr
	}
	stats.ScanTime += scanned.elapsed
	stats.absorbScan(scanned.res)
	return nil
}
