package query

import (
	"context"
	"time"

	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/traj"
)

// rangeQuery runs a spatial range query: every stored trajectory with at
// least one point inside q.Rect. The XZ* cover prunes index spaces whose
// quads all miss the window; a pushed-down filter checks the DP feature boxes
// and then the exact points before a row ships.
func (e *Engine) rangeQuery(ctx context.Context, snap *store.Snapshot, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	stats := &Stats{}

	t0 := time.Now()
	ranges, _ := e.store.Index().RangeCover(q.Rect, e.budget)
	stats.PruneTime = time.Since(t0)

	// Range results carry no distance; refinement here is the client-side
	// decode of every shipped row, which still profits from the pool on
	// large windows.
	return e.refineRanges(ctx, snap, stats, ranges, q.Window, rangeFilter(q.Rect),
		func(rec *traj.Record, row []float64) (refineOutcome, []float64) {
			return refineOutcome{rec: rec, keep: true}, row
		}, sink)
}

// rangeFilter is the range query's push-down: some feature box must
// intersect the window, and then some point must lie inside it.
func rangeFilter(window geo.Rect) rowFilter {
	return func(v traj.RecordView, s *filterScratch) bool {
		var err error
		if s.idx, s.boxes, err = v.Features(s.idx, s.boxes); err != nil {
			return true // unparseable rows ship; the worker's decode reports them
		}
		// Cheap feature-box prefilter: a point inside the window requires
		// its covering box to intersect the window.
		if len(s.boxes) > 0 {
			hit := false
			for _, b := range s.boxes {
				if b.Intersects(window) {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
		s.walked = true
		hit, err := v.AnyPointIn(window)
		return hit || err != nil
	}
}
