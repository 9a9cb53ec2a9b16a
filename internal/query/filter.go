package query

import (
	"math"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/traj"
)

// Local filtering (Section V-D, Algorithm 2). Each check is a sound
// necessary condition for f(Q,T) <= eps; any failure proves dissimilarity.
// Checks run cheapest-first, as the paper prescribes.

// localBound evaluates Lemmas 12-14 for a stored record against the query as
// one number: the smallest eps at which every check passes, which therefore
// lower-bounds f(Q,T). The pushed-down filter keeps a row iff that number is
// at most its threshold; a best-first search also orders a drain's rows by it.
// The evaluation abandons as soon as the running maximum exceeds cutoff and
// reports ok = false — the record provably cannot be within cutoff, and lb is
// then only the partial maximum that proved it. cutoff = +Inf never abandons.
func localBound(qg *queryGeom, measure dist.Measure, rec *traj.Record, cutoff float64) (lb float64, ok bool) {
	qpts := qg.points
	tpts := rec.Points
	if len(tpts) == 0 {
		return math.Inf(1), false
	}

	// Lemma 12: endpoints must match within eps (Fréchet and DTW only).
	if dist.SupportsEndpointLemma(measure) {
		lb = math.Max(qpts[0].Dist(tpts[0]), qpts[len(qpts)-1].Dist(tpts[len(tpts)-1]))
		if lb > cutoff {
			return lb, false
		}
	}

	// Lemma 13, query side: every representative point of Q must be within
	// eps of T's feature boxes (which cover all of T).
	if lb = pointsToBoxes(lb, qg.rep, rec.Features.Boxes, tpts, cutoff); lb > cutoff {
		return lb, false
	}
	// Lemma 13, data side: every representative point of T within eps of
	// Q's boxes.
	if lb = pointsToBoxes(lb, repPointsOf(rec), qg.features.Boxes, qpts, cutoff); lb > cutoff {
		return lb, false
	}

	// Lemma 14, both sides: every feature box's guaranteed point (one per
	// edge) must reach the other side's boxes within eps.
	if lb = boxesToBoxes(lb, qg.features.Boxes, rec.Features.Boxes, tpts, cutoff); lb > cutoff {
		return lb, false
	}
	if lb = boxesToBoxes(lb, rec.Features.Boxes, qg.features.Boxes, qpts, cutoff); lb > cutoff {
		return lb, false
	}
	return lb, true
}

// pointsToBoxes raises lb to the largest distance from a point of pts to the
// union of boxes, returning early once it exceeds cutoff. When the other
// trajectory has no boxes (a single-point trajectory), it falls back to its
// raw points.
func pointsToBoxes(lb float64, pts []geo.Point, boxes []geo.Rect, fallback []geo.Point, cutoff float64) float64 {
	for _, p := range pts {
		var d float64
		if len(boxes) == 0 {
			d = distToPoints(p, fallback)
		} else {
			d = traj.DistPointBoxes(p, boxes)
		}
		if d > lb {
			if lb = d; lb > cutoff {
				return lb
			}
		}
	}
	return lb
}

// boxesToBoxes applies Lemma 14: for each box of a, the farthest of its four
// edges' minimum distances to b's boxes lower-bounds the distance (every edge
// of an MBR touches at least one real point). It raises lb to the largest of
// those, returning early once it exceeds cutoff.
func boxesToBoxes(lb float64, a, b []geo.Rect, bFallback []geo.Point, cutoff float64) float64 {
	for _, box := range a {
		for _, edge := range box.Edges() {
			var d float64
			if len(b) == 0 {
				d = distSegToPoints(geo.Segment(edge), bFallback)
			} else {
				d = traj.DistSegmentBoxes(geo.Segment(edge), b)
			}
			if d > lb {
				if lb = d; lb > cutoff {
					return lb
				}
			}
		}
	}
	return lb
}

// repPointsOf materializes a stored record's representative points, tolerating
// out-of-range indexes from corrupt rows by skipping them.
func repPointsOf(rec *traj.Record) []geo.Point {
	out := make([]geo.Point, 0, len(rec.Features.PointIdx))
	for _, idx := range rec.Features.PointIdx {
		if idx >= 0 && idx < len(rec.Points) {
			out = append(out, rec.Points[idx])
		}
	}
	return out
}

func distToPoints(p geo.Point, pts []geo.Point) float64 {
	best := math.Inf(1)
	for _, q := range pts {
		if d := p.Dist(q); d < best {
			best = d
		}
	}
	return best
}

func distSegToPoints(s geo.Segment, pts []geo.Point) float64 {
	best := math.Inf(1)
	for _, q := range pts {
		if d := geo.DistPointSegment(q, s); d < best {
			best = d
		}
	}
	return best
}

// serverFilter builds the coprocessor push-down: decode the row, run the
// local filter. Rows that fail never leave the region server.
func serverFilter(qg *queryGeom, measure dist.Measure, eps float64) func(key, value []byte) bool {
	return func(key, value []byte) bool {
		rec, err := store.DecodeRow(value)
		if err != nil {
			// A row we cannot decode is surfaced rather than silently
			// dropped: ship it and let the client-side decode report the
			// corruption.
			return true
		}
		_, ok := localBound(qg, measure, rec, eps)
		return ok
	}
}

// endpointOnlyFilter is the reduced push-down of the ablation study and of
// JUST-style systems: Lemma 12 only.
func endpointOnlyFilter(qg *queryGeom, measure dist.Measure, eps float64) func(key, value []byte) bool {
	supports := dist.SupportsEndpointLemma(measure)
	return func(key, value []byte) bool {
		if !supports {
			return true
		}
		rec, err := store.DecodeRow(value)
		if err != nil {
			return true
		}
		if len(rec.Points) == 0 {
			return false
		}
		if qg.points[0].Dist(rec.Points[0]) > eps {
			return false
		}
		return qg.points[len(qg.points)-1].Dist(rec.Points[len(rec.Points)-1]) <= eps
	}
}

// buildFilter selects the push-down according to the engine's tuning.
func (e *Engine) buildFilter(qg *queryGeom, eps float64) func(key, value []byte) bool {
	switch {
	case e.tuning.DisableLocalFilter:
		return nil
	case e.tuning.EndpointOnlyFilter:
		return endpointOnlyFilter(qg, e.measure, eps)
	default:
		return serverFilter(qg, e.measure, eps)
	}
}
