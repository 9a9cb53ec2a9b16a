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
// work, and it reuses the Algorithm-4 best-first search with different
// (still sound) lower bounds: every point of a trajectory lies inside its
// index space's occupied quads, so the distance from the point to that quad
// union lower-bounds the closest approach of everything in the space, and
// every point lies inside the trajectory's feature boxes, so the distance to
// those lower-bounds its own.
func (e *Engine) nearestToPoint(ctx context.Context, snap *store.Snapshot, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	p := q.Point
	ix := e.store.Index()

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
		// A point has no element of its own, so nothing seeds the bound.
		// The distance to a row's first point bounds its closest approach
		// from above.
		bounds: func(v traj.RecordView, s *filterScratch, cutoff float64, upper bool) (float64, float64, bool) {
			ub := math.Inf(1)
			var err error
			if s.idx, s.boxes, err = v.Features(s.idx, s.boxes); err != nil {
				return 0, ub, true
			}
			lb := pointBoxBound(p, s.boxes)
			if upper && lb <= cutoff {
				if first, err := v.First(); err == nil {
					ub = p.Dist(first)
				}
			}
			return lb, ub, lb <= cutoff
		},
		exact: func(rec *traj.Record, bound float64, row []float64) (float64, bool, []float64) {
			d := closestApproach(p, rec.Points, rec.Features.Boxes, bound)
			return d, d <= bound, row
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

// pointBoxBound lower-bounds the distance from p to a trajectory by its
// feature boxes, which cover every point of it; 0 when it has none.
func pointBoxBound(p geo.Point, boxes []geo.Rect) float64 {
	if len(boxes) == 0 {
		return 0
	}
	lb := math.Inf(1)
	for _, b := range boxes {
		if d := geo.DistPointRect(p, b); d < lb {
			lb = d
		}
	}
	return lb
}

// closestApproach is the exact minimum distance from p to the trajectory's
// points, with a feature-box prefilter that abandons once the boxes prove
// the trajectory cannot beat bound: the value returned is then the box bound,
// which strictly exceeds bound, so comparing it against bound decides as the
// exact value would.
func closestApproach(p geo.Point, pts []geo.Point, boxes []geo.Rect, bound float64) float64 {
	// Strict: a trajectory that may tie the kth distance gets its exact
	// value, so the (distance, id) order decides, not arrival order.
	if lb := pointBoxBound(p, boxes); lb > bound {
		return lb // cannot enter the top-k; exact value is irrelevant
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
