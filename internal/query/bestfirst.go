package query

import (
	"bytes"
	"context"
	"math"
	"sync"
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
	// seed is the element scanned before the root expansion, so that its
	// rows' upper bounds make the search's bound finite before the first
	// expansion. The zero Seq (the root, which is no element) seeds nothing.
	seed xzstar.Seq
	// window restricts the search to rows observed within it.
	window TimeWindow
	// bounds bounds one row's distance from its stored bytes. lb is from
	// below: the row is abandoned with ok = false once lb provably exceeds
	// cutoff. ub is from above when upper is set, and +Inf otherwise or when
	// unknown. Bytes it cannot parse get (0, +Inf, true). It is the
	// pushed-down filter of every scan (cutoff = the live bound, no upper
	// bound), the key a held row is refined in order of, and, through ub,
	// what bounds the kth distance before any kernel runs.
	bounds func(v traj.RecordView, s *filterScratch, cutoff float64, upper bool) (lb, ub float64, ok bool)
	// exact is the one distance call a candidate pays: ok reports that the
	// distance is at most bound, and d is then exact. row is the calling
	// worker's DP scratch, handed back possibly grown.
	exact func(rec *traj.Record, bound float64, row []float64) (d float64, ok bool, _ []float64)
}

// bestFirst is the search loop of Algorithm 4 as an optimal multi-step k-NN
// search (Seidl & Kriegel): three queues — unexpanded elements, unscanned
// index spaces and shipped rows not yet refined, each keyed by a lower bound
// — are served in one global order, so the exact kernel runs only on rows no
// unscanned one could undercut.
//
// First the element the query itself would be stored under is scanned (then
// its ancestors, until k rows have shipped): every row that ships is held
// under its lower bound, and its upper bound is offered to the result set,
// so k such rows make the bound finite before any kernel runs, and
// same-shaped trajectories make it tight. Then the
// smallest head goes next. A held row is refined once its bound is at most
// every frontier head and the bound; a space is scanned once it is nearer
// than every unexpanded element and every held row, and every space that is
// shares one scan request (one RPC per region per drain); otherwise the
// nearest element is expanded, its surviving index spaces queued by their
// own lower bounds — on equal bounds a row is refined before anything else,
// and an expansion (planning) goes before a scan (I/O). The search ends when
// every head exceeds the bound. Every tightening of the bound prunes the
// frontier, rejects rows inside the regions and ends a run of refinement.
//
// The answer is the k smallest candidates under the total order
// (distance, id): every shortcut — frontier cut-off, pushed-down filter,
// refinement stop, bounded kernel — is a strict rejection (lb > bound)
// against a bound that is never tighter than the final kth distance (k
// distinct rows lie within the kth exact distance and within the kth upper
// bound alike), so a candidate that belongs in the answer, ties at the kth
// distance included, survives any interleaving, worker count or shard count.
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
	held := &binHeap[heldRow]{less: heldBefore}

	filter, walked := wrapWithWindow(f.window, func(v traj.RecordView, s *filterScratch) bool {
		cutoff := top.bound.get()
		if math.IsInf(cutoff, 1) {
			return true // fewer than k rows bounded: nothing can be rejected
		}
		_, _, ok := f.bounds(v, s, cutoff, false)
		return ok
	})

	// drain scans the given index spaces in one request and holds what
	// ships. No space is ever passed twice: an element is expanded once, and
	// the seed's spaces are remembered in seeded.
	var rows []kv.Entry // one drain's shipped rows, reused by the next
	drain := func(spaces []int64) error {
		if len(spaces) == 0 {
			return nil
		}
		stats.Ranges += len(spaces)
		ranges := make([]xzstar.ValueRange, len(spaces))
		for i, v := range spaces {
			ranges[i] = xzstar.ValueRange{Lo: v, Hi: v + 1}
		}
		var err error
		rows, err = e.hold(ctx, snap, stats, ranges, filter, f, top, held, rows[:0])
		return err
	}

	seeded := map[int64]bool{}
	t0 := time.Now()
	for s := f.seed; s.Len() > 0 && math.IsInf(top.bound.get(), 1); s = parentSeq(s) {
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

	eq := &binHeap[elemCand]{less: elemBefore}
	iq := &binHeap[spaceCand]{less: spaceBefore}
	// pushElem and pushSpace skip what is empty in the query's snapshot.
	pushElem := func(s xzstar.Seq) {
		pr := ix.PrefixRange(s)
		if !snap.HasValuesIn(pr.Lo, pr.Hi) {
			return
		}
		d, tie := f.elemBound(s)
		eq.push(elemCand{seq: s, dist: d, tie: tie})
	}
	pushSpace := func(value int64, dist float64) {
		if !seeded[value] && snap.HasValuesIn(value, value+1) {
			iq.push(spaceCand{value: value, dist: dist})
		}
	}

	t1 := time.Now()
	for _, s := range xzstar.RootSeqs() {
		pushElem(s)
	}
	stats.PruneTime += time.Since(t1)

	inf := math.Inf(1)
search:
	for {
		bound := top.bound.get()
		elem, space, row := inf, inf, inf
		if eq.len() > 0 {
			elem = eq.items[0].dist
		}
		if iq.len() > 0 {
			space = iq.items[0].dist
		}
		if held.len() > 0 {
			row = held.items[0].lb
		}
		switch {
		case held.len() > 0 && row <= min(elem, space, bound):
			// No row left unscanned can undercut the nearest held one.
			if err := e.refine(ctx, stats, held, min(elem, space), f, top); err != nil {
				return nil, nil, err
			}
		case iq.len() > 0 && space <= bound && space < elem:
			// Scan every index space that no unexpanded element and no held
			// row can match.
			var ready []int64
			for iq.len() > 0 && iq.items[0].dist < min(elem, row) && iq.items[0].dist <= bound {
				ready = append(ready, iq.pop().value)
			}
			if err := drain(ready); err != nil {
				return nil, nil, err
			}
		case eq.len() > 0 && elem <= bound:
			t2 := time.Now()
			ec := eq.pop()
			f.spaces(ec.seq, bound, pushSpace)
			// Expand children (deeper resolutions).
			if ec.seq.Len() < ix.MaxResolution() {
				for d := byte(0); d < 4; d++ {
					pushElem(ec.seq.Child(d))
				}
			}
			stats.PruneTime += time.Since(t2)
		default:
			break search // every head lies beyond the bound, which only tightens
		}
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

// heldRow is a shipped row waiting to be refined, still encoded, with the
// lower bound it is refined in order of.
type heldRow struct {
	value []byte
	id    []byte // aliases value
	lb    float64
}

// heldBefore orders the held rows: ascending lower bound, ties by id so that
// one worker refines in an order no shard interleaving can change.
func heldBefore(a, b heldRow) bool {
	if a.lb < b.lb {
		return true
	}
	if a.lb > b.lb {
		return false
	}
	return bytes.Compare(a.id, b.id) < 0
}

// hold scans ranges through the pushed-down filter and bounds every row that
// ships from its bytes, in one walk: the row joins held under its lower bound,
// and its upper bound is offered to top. A row whose framing does not parse
// is held at bound 0, like one bounds cannot parse: refined first, reported
// by its decode. Scan and refinement never overlap, so the bound is constant
// while a scan's filter runs, and what ships does not depend on timing. The
// shipped rows are appended to rows, which is returned for reuse.
func (e *Engine) hold(ctx context.Context, snap *store.Snapshot, stats *Stats, ranges []xzstar.ValueRange,
	filter func(key, value []byte) bool, f frontier, top *topResults, held *binHeap[heldRow], rows []kv.Entry) ([]kv.Entry, error) {
	t0 := time.Now()
	res, err := snap.ScanRangesStream(ctx, ranges, filter, 0, store.StreamOptions{}, func(batch []kv.Entry) error {
		stats.StreamBatches++
		rows = append(rows, batch...)
		return nil
	})
	if err != nil {
		return rows, err
	}
	stats.ScanTime += time.Since(t0)
	stats.absorbScan(res)

	t1 := time.Now()
	s := scratchPool.Get().(*filterScratch)
	for _, row := range rows {
		r := heldRow{value: row.Value}
		if v, err := traj.ViewRecord(row.Value); err == nil {
			lb, ub, ok := f.bounds(v, s, top.bound.get(), true)
			if !ok {
				continue // proved beyond the bound
			}
			r.id, r.lb = v.ID(), lb
			top.offerUpper(ub)
		}
		held.push(r)
	}
	s.walked = false
	scratchPool.Put(s)
	stats.StreamPeakDepth = max(stats.StreamPeakDepth, held.len())
	bounding := time.Since(t1)
	stats.RefineTime += bounding
	stats.RefineCPUTime += bounding
	return rows, nil
}

// refine feeds the refine pool the held rows in (lower bound, id) order while
// the next one's bound is at most both limit — the smallest bound left on the
// frontier, which an unscanned row could still undercut — and the live kth
// distance, which every merge may tighten. Workers take rows off the heap
// under its own mutex: the search loop touches it only between pool runs.
func (e *Engine) refine(ctx context.Context, stats *Stats, held *binHeap[heldRow], limit float64, f frontier, top *topResults) error {
	var mu sync.Mutex
	return startRefine(ctx, stats, min(e.refineParallelism(), held.len()),
		func(context.Context) (kv.Entry, bool) {
			mu.Lock()
			defer mu.Unlock()
			if held.len() == 0 || held.items[0].lb > min(limit, top.bound.get()) {
				return kv.Entry{}, false
			}
			return kv.Entry{Value: held.pop().value}, true
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

// refineBound is the pruning bound a best-first search shares between its
// result set (see topResults) and the workers and filters that read it: an
// upper bound on the final kth distance. It only ever tightens, so a stale
// read is sound — merely looser, which can cost a wasted kernel call but never
// a wrong result (insertion re-applies the exact comparison).
type refineBound struct{ bits atomic.Uint64 }

func (b *refineBound) get() float64 { return math.Float64frombits(b.bits.Load()) }

// tighten lowers the bound to d if d is below it. Its callers never run at
// once (see topResults), so the load and the store need no loop.
func (b *refineBound) tighten(d float64) {
	if d < b.get() {
		b.bits.Store(math.Float64bits(d))
	}
}

// topResults keeps the k smallest results offered under resultBefore beside
// the k smallest upper bounds offered for shipped rows, and publishes the
// smaller of the two kth values as the search's bound: +Inf until k results
// or k upper bounds are held, tightening with every insertion after that.
// Either kth value has k distinct rows within it, so neither is below the
// final kth distance. Its writers never run at once: offer is the refine
// pool's merge, under the pool's mutex, and offerUpper is the search loop,
// which calls it only between pool runs.
type topResults struct {
	bound refineBound

	k      int
	heap   binHeap[Result]  // worst of the current best k on top
	uppers binHeap[float64] // largest of the k smallest upper bounds on top
}

func newTopResults(k int) *topResults {
	t := &topResults{
		k:      k,
		heap:   binHeap[Result]{less: func(a, b Result) bool { return resultBefore(b, a) }},
		uppers: binHeap[float64]{less: func(a, b float64) bool { return a > b }},
	}
	t.bound.bits.Store(math.Float64bits(math.Inf(1)))
	return t
}

// offer inserts r if it is among the k smallest seen so far.
func (t *topResults) offer(r Result) {
	if t.heap.len() < t.k {
		t.heap.push(r)
	} else if resultBefore(r, t.heap.items[0]) {
		t.heap.replaceTop(r)
	}
	if t.heap.len() == t.k {
		t.bound.tighten(t.heap.items[0].Distance)
	}
}

// offerUpper records ub, an upper bound on one shipped row's distance; each
// row is offered once.
func (t *topResults) offerUpper(ub float64) {
	if t.uppers.len() < t.k {
		t.uppers.push(ub)
	} else if ub < t.uppers.items[0] {
		t.uppers.replaceTop(ub)
	}
	if t.uppers.len() == t.k {
		t.bound.tighten(t.uppers.items[0])
	}
}

// ascending empties the set into a slice ordered by (distance, id).
func (t *topResults) ascending() []Result {
	out := make([]Result, t.heap.len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = t.heap.pop()
	}
	return out
}

// elemCand is an enlarged element in the best-first frontier.
type elemCand struct {
	seq  xzstar.Seq
	dist float64 // lower bound for everything stored under the element
	tie  int
}

func elemBefore(a, b elemCand) bool {
	if a.dist < b.dist {
		return true
	}
	if a.dist > b.dist {
		return false
	}
	return a.tie < b.tie
}

// spaceCand is an index space awaiting its scan.
type spaceCand struct {
	value int64
	dist  float64 // lower bound for every trajectory indexed in the space
}

func spaceBefore(a, b spaceCand) bool {
	if a.dist < b.dist {
		return true
	}
	if a.dist > b.dist {
		return false
	}
	return a.value < b.value
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

// binHeap is a binary heap with the least element under less on top, kept
// by hand rather than through container/heap so that no push or pop boxes an
// element into an interface.
type binHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *binHeap[T]) len() int { return len(h.items) }

func (h *binHeap[T]) push(x T) {
	h.items = append(h.items, x)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// pop removes and returns the top element.
func (h *binHeap[T]) pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero // drop the reference the vacated slot held
	h.items = h.items[:n]
	h.down()
	return top
}

// replaceTop puts x in the top element's place.
func (h *binHeap[T]) replaceTop(x T) {
	h.items[0] = x
	h.down()
}

// down sifts the top element to its place.
func (h *binHeap[T]) down() {
	for i, n := 0, len(h.items); ; {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(h.items[c+1], h.items[c]) {
			c++
		}
		if !h.less(h.items[c], h.items[i]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
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
