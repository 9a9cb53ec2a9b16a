package query

// Refinement contracts. The last stage of every search decodes the rows that
// survived local filtering and pays for full similarity computations — the
// stage the paper's evaluation (and DFT/DITA before it) shows dominating
// query time. The executor itself lives in stream.go (refineFromScan):
// workers pull candidates from the live scan through a bounded queue while
// outcomes merge on the calling goroutine as they complete. Merge callbacks
// therefore build results that do not depend on arrival order — a set sorted
// at the end, or the k smallest under a total order — which is what makes
// answers identical for any worker count or queue depth.
//
// Best-first searches (top-k, point-kNN) publish their kth-distance bound
// through an atomic cell (refineBound) that the merge loop tightens after
// every insertion; workers — and the server-side filters of scans still in
// flight — read it for early-abandoning prefilters. A
// stale read is always *looser* than the merge-time bound, so concurrency
// can only refine more candidates than strictly necessary — never admit a
// wrong result (the merge step re-applies the exact comparison).
//
// Cancellation: workers observe cancellation between candidates and the
// merge loop selects on ctx.Done(), so a cancelled query returns promptly
// with ctx's error even while distance computations are in flight.

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/traj"
)

// refineOutcome is one candidate's refinement result, produced on a worker
// and consumed by the merge callback.
type refineOutcome struct {
	rec  *traj.Record
	key  []byte // the candidate's row key, set by the executor
	dist float64
	keep bool // false: the prefilter proved the row cannot contribute
}

// refineWork computes one decoded candidate's outcome. It runs on worker
// goroutines: it must not touch anything but its arguments and atomics (the
// shared refineBound in particular).
type refineWork func(rec *traj.Record) refineOutcome

// refineMerge folds one outcome into the caller's result state. It runs on
// the calling goroutine only, in whatever order workers finish, and is where
// per-candidate stats belong. A non-nil error aborts the pipeline (streaming delivery
// callbacks use this to stop a query early).
type refineMerge func(o refineOutcome) error

// refineBound is the pruning bound shared between the merge loop (single
// writer) and the workers (readers): for top-k searches, the current kth
// distance. It only ever tightens, so a stale read is sound — merely looser.
type refineBound struct{ bits atomic.Uint64 }

func newRefineBound(d float64) *refineBound {
	b := &refineBound{}
	b.set(d)
	return b
}

func (b *refineBound) get() float64  { return math.Float64frombits(b.bits.Load()) }
func (b *refineBound) set(d float64) { b.bits.Store(math.Float64bits(d)) }

// refineParallelism resolves the worker count: the engine knob if set,
// otherwise the store's scan parallelism, otherwise GOMAXPROCS.
func (e *Engine) refineParallelism() int {
	if e.refineWorkers > 0 {
		return e.refineWorkers
	}
	if p := e.store.Config().Parallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}
