package query

import (
	"context"
	"time"

	"repro/internal/store"
	"repro/internal/traj"
)

// rangeQuery runs a spatial range query: every stored trajectory with at
// least one point inside q.Rect. The XZ* cover prunes index spaces whose
// quads all miss the window; a pushed-down filter checks the DP feature boxes
// and then the exact points before a row ships.
func (e *Engine) rangeQuery(ctx context.Context, snap *store.Snapshot, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	window := q.Rect
	stats := &Stats{}

	t0 := time.Now()
	ranges, _ := e.store.Index().RangeCover(window, e.budget)
	stats.PruneTime = time.Since(t0)

	filter := func(key, value []byte) bool {
		rec, err := store.DecodeRow(value)
		if err != nil {
			return true // surface corruption at the client decode
		}
		// Cheap feature-box prefilter: a point inside the window requires
		// its covering box to intersect the window.
		if len(rec.Features.Boxes) > 0 {
			hit := false
			for _, b := range rec.Features.Boxes {
				if b.Intersects(window) {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
		for _, p := range rec.Points {
			if window.ContainsPoint(p) {
				return true
			}
		}
		return false
	}

	// Range results carry no distance; refinement here is the client-side
	// decode of every shipped row, which still profits from the pool on
	// large windows.
	return e.refineRanges(ctx, snap, stats, ranges, wrapWithWindow(q.Window, filter),
		func(rec *traj.Record, row []float64) (refineOutcome, []float64) {
			return refineOutcome{rec: rec, keep: true}, row
		}, sink)
}
