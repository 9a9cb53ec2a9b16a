package query

import (
	"container/heap"
	"context"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/kv"
	"repro/internal/store"
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
	// bound is the kth-distance cell filter and work read. bestFirst is its
	// only writer and tightens it after every insertion, so a scan still
	// streaming when a nearer result lands starts rejecting rows at once. A
	// stale (looser) read only costs a wasted computation or a shipped row:
	// the exact comparison in the merge decides membership, and rejections
	// are strict lower-bound proofs (lb > bound) against a bound no tighter
	// than the final kth distance — so results are identical for any
	// interleaving, ties at the kth distance included.
	bound *refineBound
	// filter is pushed down into every space scan; nil ships every row.
	filter func(key, value []byte) bool
	// work refines one shipped row on a worker goroutine.
	work refineWork
}

// bestFirst is the search loop of Algorithm 4: elements are expanded
// nearest-first, their surviving index spaces are queued by their own lower
// bounds, and a space is scanned only when no unexpanded element could still
// produce a nearer one. Every kth result tightens the working threshold,
// which prunes the remaining frontier. All HasValuesIn probes and space scans
// read snap, so that argument holds against a stable ground truth even under
// concurrent ingest. Results come back ascending by (distance, id), or go to
// sink in that order; k <= 0 asks for none.
func (e *Engine) bestFirst(ctx context.Context, snap *store.Snapshot, k int, f frontier, sink func(Result) error) ([]Result, *Stats, error) {
	stats := &Stats{}
	if k <= 0 {
		return nil, stats, nil
	}
	ix := e.store.Index()

	results := &resultHeap{} // max-heap: worst of the current best k on top
	epsOf := func() float64 {
		if results.Len() == k {
			return (*results)[0].Distance
		}
		return math.Inf(1)
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
		if snap.HasValuesIn(value, value+1) {
			heap.Push(iq, spaceCand{value: value, dist: dist})
		}
	}

	// The merge keeps the k smallest candidates under the total order
	// (distance, id), so the answer is a function of the candidate set, not of
	// the order shards and workers deliver it in.
	scanSpace := func(sc spaceCand) error {
		stats.Ranges++
		scan := func(sctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
			return snap.ScanRangesStream(sctx,
				[]xzstar.ValueRange{{Lo: sc.value, Hi: sc.value + 1}},
				f.filter, 0, store.StreamOptions{}, emit)
		}
		return e.refineFromScan(ctx, stats, scan, f.work, func(o refineOutcome) error {
			if !o.keep {
				return nil
			}
			r := Result{ID: o.rec.ID, Distance: o.dist, Points: o.rec.Points}
			if results.Len() < k {
				heap.Push(results, r)
			} else if resultBefore(r, (*results)[0]) {
				(*results)[0] = r
				heap.Fix(results, 0)
			}
			f.bound.set(epsOf())
			return nil
		})
	}

	t0 := time.Now()
	for _, s := range xzstar.RootSeqs() {
		pushElem(s)
	}
	stats.PruneTime += time.Since(t0)

	for eq.Len() > 0 || iq.Len() > 0 {
		// Drain index spaces that no unexpanded element can beat.
		for iq.Len() > 0 && (eq.Len() == 0 || (*iq)[0].dist <= (*eq)[0].dist) {
			sc := heap.Pop(iq).(spaceCand)
			if sc.dist > epsOf() {
				// Priority queue: everything behind is farther.
				*iq = (*iq)[:0]
				break
			}
			if err := scanSpace(sc); err != nil {
				return nil, nil, err
			}
		}
		if eq.Len() == 0 {
			break // the drain above ran iq dry
		}

		t1 := time.Now()
		ec := heap.Pop(eq).(elemCand)
		eps := epsOf()
		if ec.dist > eps {
			// The nearest element exceeds the working threshold, so every
			// other one does too; only the queued spaces can still
			// contribute, and the next pass drains them.
			*eq = (*eq)[:0]
			stats.PruneTime += time.Since(t1)
			continue
		}
		f.spaces(ec.seq, eps, pushSpace)
		// Expand children (deeper resolutions).
		if ec.seq.Len() < ix.MaxResolution() {
			for d := byte(0); d < 4; d++ {
				pushElem(ec.seq.Child(d))
			}
		}
		stats.PruneTime += time.Since(t1)
	}

	// Extract ascending by (distance, id).
	out := make([]Result, results.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(results).(Result)
	}
	stats.Results = len(out)
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
