package query

import (
	"context"
	"time"

	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// threshold runs the threshold similarity search of Algorithm 3: global
// pruning plans the key ranges, local filtering runs pushed down inside the
// regions, and the survivors stream through refinement — one call of the
// measure's bounded kernel each — as the scans produce them.
func (e *Engine) threshold(ctx context.Context, snap *store.Snapshot, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	qg := e.prepare(q.Traj)
	stats := &Stats{}

	t0 := time.Now()
	ranges, _ := e.store.Index().GlobalPruneOpts(qg.xq, q.Eps, e.budget,
		xzstar.PruneOptions{DisableCodePruning: e.tuning.DisablePosCodes})
	stats.PruneTime = time.Since(t0)

	return e.refineRanges(ctx, snap, stats, ranges, q.Window, e.buildFilter(qg, q.Eps),
		func(rec *traj.Record, row []float64) (refineOutcome, []float64) {
			d, ok, row := e.kernel(qg.points, rec.Points, q.Eps, row)
			return refineOutcome{rec: rec, dist: d, keep: ok}, row
		}, sink)
}
