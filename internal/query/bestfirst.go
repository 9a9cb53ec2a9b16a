package query

import (
	"bytes"
	"container/heap"
	"context"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// frontier is everything that differs between the best-first searches
// (top-k, nearest-to-point); bestFirst owns the rest.
type frontier struct {
	// elemBound lower-bounds the distance from the query to anything stored
	// under element s. Among equal bounds the smaller tie expands first.
	elemBound func(s xzstar.Seq) (dist float64, tie int)
	// spaces emits the index spaces of element s that can still hold a
	// result within eps, each with its own lower bound.
	spaces func(s xzstar.Seq, eps float64, emit func(value int64, dist float64))
	// seed is the element scanned before the root expansion to make the
	// bound finite, followed by its ancestors while fewer than k results are
	// held. The zero Seq (the root, which is no element) seeds nothing.
	seed xzstar.Seq
	// window restricts the search to rows observed within it.
	window TimeWindow
	// lower lower-bounds one row's distance from its stored bytes. It
	// abandons with ok = false once the bound provably exceeds cutoff, and
	// answers (0, true) for bytes it cannot parse. It is the pushed-down
	// filter of every scan (cutoff = the live kth distance) and the key a
	// drain's shipped rows are refined in order of.
	lower func(v traj.RecordView, s *filterScratch, cutoff float64) (lb float64, ok bool)
	// exact is the one distance call a candidate pays: ok reports that the
	// distance is at most bound, and d is then exact. row is the calling
	// worker's DP scratch, handed back possibly grown.
	exact func(rec *traj.Record, bound float64, row []float64) (d float64, ok bool, _ []float64)
}

// bestFirst is the search loop of Algorithm 4 behind a seed: first the
// element the query itself would be stored under is scanned (then its
// ancestors, until k results are held), because any k exact distances
// upper-bound the kth and same-shaped trajectories make that bound tight.
// Then elements are expanded nearest-first, their surviving index spaces are
// queued by their own lower bounds, and a space is scanned only when no
// unexpanded element could still produce one as near — an expansion is
// planning, a scan is I/O, so on equal bounds the expansion goes first and
// every space ready at once shares one scan request (one RPC per region per
// drain). Every kth result tightens the working threshold, which prunes the
// remaining frontier, rejects rows inside the regions, and cuts each drain's
// refinement short.
//
// The answer is the k smallest candidates under the total order
// (distance, id): every shortcut — frontier cut-off, pushed-down filter,
// ordered-refine stop, bounded kernel — is a strict rejection (lb > bound)
// against a bound that is never tighter than the final kth distance, so a
// candidate that belongs in the answer, ties at the kth distance included,
// survives any interleaving, worker count or shard count.
//
// All HasValuesIn probes and space scans read snap, so that argument holds
// against a stable ground truth even under concurrent ingest. Results come
// back ascending by (distance, id), or go to sink in that order; k <= 0 asks
// for none.
func (e *Engine) bestFirst(ctx context.Context, snap *store.Snapshot, k int, f frontier, sink func(Result) error) ([]Result, *Stats, error) {
	stats := &Stats{}
	if k <= 0 {
		return nil, stats, nil
	}
	ix := e.store.Index()
	top := newTopResults(k)

	filter, walked := wrapWithWindow(f.window, func(v traj.RecordView, s *filterScratch) bool {
		cutoff := top.bound.get()
		if math.IsInf(cutoff, 1) {
			return true // fewer than k results held: nothing can be rejected
		}
		_, ok := f.lower(v, s, cutoff)
		return ok
	})

	// drain scans the given index spaces in one request and refines what
	// ships. No space is ever passed twice: an element is expanded once, and
	// the seed's spaces are remembered in seeded.
	drain := func(spaces []int64) error {
		if len(spaces) == 0 {
			return nil
		}
		stats.Ranges += len(spaces)
		ranges := make([]xzstar.ValueRange, len(spaces))
		for i, v := range spaces {
			ranges[i] = xzstar.ValueRange{Lo: v, Hi: v + 1}
		}
		return e.refineOrdered(ctx, snap, stats, ranges, filter, f, top)
	}

	seeded := map[int64]bool{}
	t0 := time.Now()
	for s := f.seed; s.Len() > 0 && top.len() < k; s = parentSeq(s) {
		var spaces []int64
		f.spaces(s, math.Inf(1), func(value int64, _ float64) {
			if snap.HasValuesIn(value, value+1) {
				seeded[value] = true
				spaces = append(spaces, value)
			}
		})
		if err := drain(spaces); err != nil {
			return nil, nil, err
		}
	}
	if f.seed.Len() > 0 {
		stats.SeedTime = time.Since(t0)
	}

	eq := &elemHeap{}
	iq := &spaceHeap{}
	// pushElem and pushSpace skip what is empty in the query's snapshot.
	pushElem := func(s xzstar.Seq) {
		pr := ix.PrefixRange(s)
		if !snap.HasValuesIn(pr.Lo, pr.Hi) {
			return
		}
		d, tie := f.elemBound(s)
		heap.Push(eq, elemCand{seq: s, dist: d, tie: tie})
	}
	pushSpace := func(value int64, dist float64) {
		if !seeded[value] && snap.HasValuesIn(value, value+1) {
			heap.Push(iq, spaceCand{value: value, dist: dist})
		}
	}

	t1 := time.Now()
	for _, s := range xzstar.RootSeqs() {
		pushElem(s)
	}
	stats.PruneTime += time.Since(t1)

	for eq.Len() > 0 || iq.Len() > 0 {
		// Drain every index space that no unexpanded element can match.
		var ready []int64
		for iq.Len() > 0 && (eq.Len() == 0 || (*iq)[0].dist < (*eq)[0].dist) {
			sc := heap.Pop(iq).(spaceCand)
			if sc.dist > top.bound.get() {
				// Priority queue: everything behind is farther.
				*iq = (*iq)[:0]
				break
			}
			ready = append(ready, sc.value)
		}
		if err := drain(ready); err != nil {
			return nil, nil, err
		}
		if eq.Len() == 0 {
			break // the drain above ran iq dry
		}

		t2 := time.Now()
		ec := heap.Pop(eq).(elemCand)
		eps := top.bound.get()
		if ec.dist > eps {
			// The nearest element exceeds the working threshold, so every
			// other one does too; only the queued spaces can still
			// contribute, and the next pass drains them.
			*eq = (*eq)[:0]
			stats.PruneTime += time.Since(t2)
			continue
		}
		f.spaces(ec.seq, eps, pushSpace)
		// Expand children (deeper resolutions).
		if ec.seq.Len() < ix.MaxResolution() {
			for d := byte(0); d < 4; d++ {
				pushElem(ec.seq.Child(d))
			}
		}
		stats.PruneTime += time.Since(t2)
	}

	out := top.ascending()
	stats.Results = len(out)
	stats.RowsWalked = walked.Load()
	if sink == nil {
		return out, stats, nil
	}
	for _, r := range out {
		if err := sink(r); err != nil {
			return nil, nil, err
		}
	}
	return nil, stats, nil
}

// parentSeq returns the sequence one resolution above s, which must not be
// the root.
func parentSeq(s xzstar.Seq) xzstar.Seq {
	digits := make([]byte, s.Len()-1)
	for i := range digits {
		digits[i] = s.Digit(i)
	}
	return xzstar.SeqOf(digits...)
}

// orderedCand is one shipped row of a drain, still encoded, with the lower
// bound it is refined in order of.
type orderedCand struct {
	value []byte
	id    []byte // aliases value
	lb    float64
}

// refineOrdered is one drain: scan ranges through the pushed-down filter,
// lower-bound what ships from its bytes, then feed the refine pool the rows
// ascending by that bound. Workers claim rows off a cursor that stops at the
// first row whose bound exceeds the live kth distance — every row after it is
// at least as far — so once k near results are in, the rest of the drain
// costs a comparison and is never decoded.
//
// Ordering needs the whole drain in hand before the first kernel runs, so the
// drain's shipped rows are the query's resident set (Stats.StreamPeakDepth),
// and scan and refinement do not overlap; the bound is therefore constant
// while a scan's filter runs, and what ships does not depend on timing.
func (e *Engine) refineOrdered(ctx context.Context, snap *store.Snapshot, stats *Stats,
	ranges []xzstar.ValueRange, filter func(key, value []byte) bool, f frontier, top *topResults) error {
	t0 := time.Now()
	var rows []kv.Entry
	res, err := snap.ScanRangesStream(ctx, ranges, filter, 0, store.StreamOptions{}, func(batch []kv.Entry) error {
		stats.StreamBatches++
		rows = append(rows, batch...)
		return nil
	})
	if err != nil {
		return err
	}
	stats.ScanTime += time.Since(t0)
	stats.absorbScan(res)
	if len(rows) == 0 {
		return nil
	}
	stats.StreamPeakDepth = max(stats.StreamPeakDepth, len(rows))

	// Lower-bound and order. A row whose framing does not parse is bounded
	// by 0, like one lower cannot parse: claimed first, reported by its
	// decode.
	t1 := time.Now()
	cands := make([]orderedCand, 0, len(rows))
	cutoff := top.bound.get()
	s := scratchPool.Get().(*filterScratch)
	for _, row := range rows {
		c := orderedCand{value: row.Value}
		if v, err := traj.ViewRecord(row.Value); err == nil {
			var ok bool
			if c.lb, ok = f.lower(v, s, cutoff); !ok {
				continue // proved beyond the cutoff
			}
			c.id = v.ID()
		}
		cands = append(cands, c)
	}
	s.walked = false
	scratchPool.Put(s)
	sort.Slice(cands, func(i, j int) bool { return candBefore(cands[i], cands[j]) })
	ordering := time.Since(t1)
	stats.RefineTime += ordering
	stats.RefineCPUTime += ordering

	var cursor atomic.Int64 // the next row a worker claims
	return startRefine(ctx, stats, min(e.refineParallelism(), len(cands)),
		func(context.Context) (kv.Entry, bool) {
			i := int(cursor.Add(1)) - 1
			if i >= len(cands) || cands[i].lb > top.bound.get() {
				return kv.Entry{}, false
			}
			return kv.Entry{Value: cands[i].value}, true
		},
		func(rec *traj.Record, row []float64) (refineOutcome, []float64) {
			d, ok, row := f.exact(rec, top.bound.get(), row)
			return refineOutcome{rec: rec, dist: d, keep: ok}, row
		},
		func(o refineOutcome) error {
			if o.keep {
				top.offer(Result{ID: o.rec.ID, Distance: o.dist, Points: o.rec.Points})
			}
			return nil
		}).wait()
}

// candBefore orders a drain's candidates: ascending lower bound, ties by id
// so that one worker refines in an order no shard interleaving can change.
func candBefore(a, b orderedCand) bool {
	if a.lb < b.lb {
		return true
	}
	if a.lb > b.lb {
		return false
	}
	return bytes.Compare(a.id, b.id) < 0
}

// refineBound is the pruning bound a best-first search shares between its
// result set (the one writer, see topResults) and the workers and filters
// that read it: the current kth distance. It only ever tightens, so a stale
// read is sound — merely looser, which can cost a wasted kernel call but never
// a wrong result (insertion re-applies the exact comparison).
type refineBound struct{ bits atomic.Uint64 }

func (b *refineBound) get() float64  { return math.Float64frombits(b.bits.Load()) }
func (b *refineBound) set(d float64) { b.bits.Store(math.Float64bits(d)) }

// topResults keeps the k smallest results offered under resultBefore and
// publishes the kth distance as the search's bound: +Inf until k results are
// held, tightening with every insertion after that. Its one writer is the
// refine pool's merge, which runs under the pool's mutex; the search loop
// reads it between drains, once the pool has been joined.
type topResults struct {
	bound refineBound

	k    int
	heap resultHeap // max-heap: worst of the current best k on top
}

func newTopResults(k int) *topResults {
	t := &topResults{k: k}
	t.bound.set(math.Inf(1))
	return t
}

// offer inserts r if it is among the k smallest seen so far.
func (t *topResults) offer(r Result) {
	if t.heap.Len() < t.k {
		heap.Push(&t.heap, r)
	} else if resultBefore(r, t.heap[0]) {
		t.heap[0] = r
		heap.Fix(&t.heap, 0)
	}
	if t.heap.Len() == t.k {
		t.bound.set(t.heap[0].Distance)
	}
}

func (t *topResults) len() int { return t.heap.Len() }

// ascending empties the set into a slice ordered by (distance, id).
func (t *topResults) ascending() []Result {
	out := make([]Result, t.heap.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&t.heap).(Result)
	}
	return out
}

// elemCand is an enlarged element in the best-first frontier.
type elemCand struct {
	seq  xzstar.Seq
	dist float64 // lower bound for everything stored under the element
	tie  int
}

type elemHeap []elemCand

func (h elemHeap) Len() int { return len(h) }
func (h elemHeap) Less(i, j int) bool {
	//lint:ignore floatcmp exact equality is the heap tie-break; an epsilon would break the ordering's transitivity
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].tie < h[j].tie
}
func (h elemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *elemHeap) Push(x any)   { *h = append(*h, x.(elemCand)) }
func (h *elemHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// spaceCand is an index space awaiting its scan.
type spaceCand struct {
	value int64
	dist  float64 // lower bound for every trajectory indexed in the space
}

type spaceHeap []spaceCand

func (h spaceHeap) Len() int           { return len(h) }
func (h spaceHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h spaceHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *spaceHeap) Push(x any)        { *h = append(*h, x.(spaceCand)) }
func (h *spaceHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// resultBefore is the total order on results: ascending distance, ties by
// id. Written without a float equality so it stays transitive.
func resultBefore(a, b Result) bool {
	if a.Distance < b.Distance {
		return true
	}
	if a.Distance > b.Distance {
		return false
	}
	return a.ID < b.ID
}

// resultHeap is a max-heap of results under resultBefore (worst on top).
type resultHeap []Result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return resultBefore(h[j], h[i]) }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
