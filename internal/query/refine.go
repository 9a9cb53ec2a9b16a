package query

// Refinement. The last stage of every search decodes the rows that survived
// local filtering and pays for similarity computations — the stage the
// paper's evaluation (and DFT/DITA before it) shows dominating query time.
// Every query kind runs it on one pool (refinePool): workers take rows from a
// feeder, decode each, run the kind's work function and merge the outcome.
// Threshold and range feed the pool from the live scan through a bounded
// queue (refineFromScan, stream.go); a best-first search feeds it the rows it
// holds in lower-bound order (refine, bestfirst.go).
//
// Merges run one at a time, under the pool's mutex, in whatever order the
// workers finish. Merge callbacks therefore build results that do not depend
// on arrival order — a set sorted at the end, or the k smallest under a
// total order — which is what makes answers identical for any worker count or
// queue depth.
//
// Cancellation: workers observe the pool's context before taking each row, so
// a cancelled query returns promptly with ctx's error even while distance
// computations are in flight.

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/traj"
)

// refineOutcome is one candidate's refinement result, produced on a worker
// and consumed by the merge callback.
type refineOutcome struct {
	rec  *traj.Record
	key  []byte // the candidate's row key, set by the pool
	dist float64
	keep bool // false: the row is no match
}

// refineWork computes one decoded candidate's outcome. It runs on worker
// goroutines concurrently: it must not touch anything but its arguments. row
// is the calling worker's DP scratch row, lent to the distance kernel and
// handed back (possibly grown) so one row serves every candidate the worker
// refines.
type refineWork func(rec *traj.Record, row []float64) (refineOutcome, []float64)

// refineMerge folds one outcome into the caller's result state. The pool
// calls it one outcome at a time, under its mutex, in whatever order workers
// finish, and never after the pool has failed. A non-nil error fails the pool
// (sinks use this to stop a query early).
type refineMerge func(o refineOutcome) error

// refineParallelism resolves the worker count: refineWorkers if a test set
// it, otherwise GOMAXPROCS. Results are identical for any value; only the
// wall-clock changes.
func (e *Engine) refineParallelism() int {
	if e.refineWorkers > 0 {
		return e.refineWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// refinePool is the refinement stage every query kind shares.
type refinePool struct {
	ctx    context.Context // cancelled by the first failure
	cancel context.CancelFunc
	parent context.Context // the caller's
	start  time.Time
	wg     sync.WaitGroup

	mu    sync.Mutex // orders merges and the Stats fold
	stats *Stats
	err   error // the first decode or merge failure
}

// startRefine starts a pool of workers. Each takes rows from next — called
// concurrently, with the pool's context — until next reports none left or the
// pool is cancelled, decodes the row (the one decode a row ever gets), runs
// work on it and merges the outcome. Per row, the same mutex that orders the
// merges folds its decode, kernel and busy time and its Refined count into
// stats. The first decode or merge failure cancels the pool; wait reports it.
func startRefine(ctx context.Context, stats *Stats, workers int,
	next func(ctx context.Context) (kv.Entry, bool), work refineWork, merge refineMerge) *refinePool {
	if workers > stats.RefineWorkers {
		stats.RefineWorkers = workers
	}
	p := &refinePool{parent: ctx, start: time.Now(), stats: stats}
	p.ctx, p.cancel = context.WithCancel(ctx)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			var row []float64 // this worker's DP scratch
			for p.ctx.Err() == nil {
				c, ok := next(p.ctx)
				if !ok {
					return
				}
				t0 := time.Now()
				rec, err := store.DecodeRow(c.Value)
				t1 := time.Now()
				var o refineOutcome
				if err == nil {
					o, row = work(rec, row)
					o.key = c.Key
				}
				t2 := time.Now()

				p.mu.Lock()
				if err == nil {
					p.stats.Refined++
					p.stats.DecodeTime += t1.Sub(t0)
					p.stats.KernelTime += t2.Sub(t1)
					p.stats.RefineCPUTime += t2.Sub(t0)
					if p.err == nil && p.ctx.Err() == nil {
						err = merge(o)
					}
				}
				if err != nil && p.err == nil {
					p.err = err
					p.cancel()
				}
				p.mu.Unlock()
			}
		}()
	}
	return p
}

// wait joins the workers and folds the pool's wall-clock into RefineTime. It
// returns the pool's first failure, else the caller context's error.
func (p *refinePool) wait() error {
	p.wg.Wait()
	p.cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.RefineTime += time.Since(p.start)
	if p.err != nil {
		return p.err
	}
	return p.parent.Err()
}
