package query

// Refinement contracts. The last stage of every search decodes the rows that
// survived local filtering and pays for similarity computations — the stage
// the paper's evaluation (and DFT/DITA before it) shows dominating query
// time. The streaming executor lives in stream.go (refineFromScan): workers
// pull candidates from the live scan through a bounded queue while outcomes
// merge on the calling goroutine as they complete. Merge callbacks therefore
// build results that do not depend on arrival order — a set sorted at the
// end — which is what makes answers identical for any worker count or queue
// depth.
//
// Best-first searches (top-k, point-kNN) do not stream: they refine one
// frontier drain at a time in lower-bound order (bestfirst.go).
//
// Cancellation: workers observe cancellation between candidates and the
// merge loop selects on ctx.Done(), so a cancelled query returns promptly
// with ctx's error even while distance computations are in flight.

import (
	"runtime"

	"repro/internal/traj"
)

// refineOutcome is one candidate's refinement result, produced on a worker
// and consumed by the merge callback.
type refineOutcome struct {
	rec  *traj.Record
	key  []byte // the candidate's row key, set by the executor
	dist float64
	keep bool // false: the row is no match
}

// refineWork computes one decoded candidate's outcome. It runs on worker
// goroutines: it must not touch anything but its arguments. row is the
// calling worker's DP scratch row, lent to the distance kernel and handed
// back (possibly grown) so one row serves every candidate the worker refines.
type refineWork func(rec *traj.Record, row []float64) (refineOutcome, []float64)

// refineMerge folds one outcome into the caller's result state. It runs on
// the calling goroutine only, in whatever order workers finish, and is where
// per-candidate stats belong. A non-nil error aborts the pipeline (streaming delivery
// callbacks use this to stop a query early).
type refineMerge func(o refineOutcome) error

// refineParallelism resolves the worker count: refineWorkers if a test set
// it, otherwise the store's scan parallelism, otherwise GOMAXPROCS. Results
// are identical for any value; only the wall-clock changes.
func (e *Engine) refineParallelism() int {
	if e.refineWorkers > 0 {
		return e.refineWorkers
	}
	if p := e.store.Config().Parallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}
