package query

import (
	"context"
	"math"

	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// nearestToPoint finds the k stored trajectories whose closest approach to
// q.Point is smallest — "which routes pass nearest this depot". It is the
// point-query member of the family the paper's conclusion leaves as future
// work, and it reuses the Algorithm-4 best-first search with a different
// (still sound) lower bound: every point of a trajectory lies inside its
// index space's occupied quads, so the distance from the point to that quad
// union lower-bounds the trajectory's closest approach.
func (e *Engine) nearestToPoint(ctx context.Context, snap *store.Snapshot, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	p := q.Point
	ix := e.store.Index()
	bound := newRefineBound(math.Inf(1))

	return e.bestFirst(ctx, snap, q.K, frontier{
		elemBound: func(s xzstar.Seq) (float64, int) {
			return geo.DistPointRect(p, s.Element()), 0
		},
		spaces: func(s xzstar.Seq, eps float64, emit func(int64, float64)) {
			quads := s.Quads()
			for _, code := range xzstar.AllCodes(s.Len() == ix.MaxResolution()) {
				if d := distPointMask(p, &quads, code.Mask()); d <= eps {
					emit(ix.Value(s, code), d)
				}
			}
		},
		bound: bound,
		// closestApproach's feature-box shortcut reads the shared kth bound.
		// The value it returns under the shortcut is a lower bound that
		// strictly exceeds the merge-time kth distance, so the exact
		// comparison in the merge decides as it would on the exact value.
		work: func(rec *traj.Record) refineOutcome {
			d := closestApproach(p, rec.Points, rec.Features.Boxes, bound.get())
			return refineOutcome{rec: rec, dist: d, keep: true}
		},
	}, sink)
}

// distPointMask is the minimum distance from p to the union of the selected
// quads.
func distPointMask(p geo.Point, quads *[4]geo.Rect, mask xzstar.QuadMask) float64 {
	best := math.Inf(1)
	for i := 0; i < 4; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		if d := geo.DistPointRect(p, quads[i]); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best
}

// closestApproach is the exact minimum distance from p to the trajectory's
// points, with a feature-box prefilter that abandons once the boxes prove
// the trajectory cannot beat bound.
func closestApproach(p geo.Point, pts []geo.Point, boxes []geo.Rect, bound float64) float64 {
	if len(boxes) > 0 && !math.IsInf(bound, 1) {
		lb := math.Inf(1)
		for _, b := range boxes {
			if d := geo.DistPointRect(p, b); d < lb {
				lb = d
			}
		}
		// Strict: a trajectory that may tie the kth distance gets its exact
		// value, so the (distance, id) order decides, not arrival order.
		if lb > bound {
			return lb // cannot enter the top-k; exact value is irrelevant
		}
	}
	best := math.Inf(1)
	for _, q := range pts {
		if d := p.Dist(q); d < best {
			best = d
			if best == 0 {
				break
			}
		}
	}
	return best
}
