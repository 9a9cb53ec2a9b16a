package query

import (
	"math"
	"sync"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/traj"
)

// Local filtering (Section V-D, Algorithm 2). Each check is a sound
// necessary condition for f(Q,T) <= eps; any failure proves dissimilarity.
// Checks run cheapest-first, as the paper prescribes.

// filterScratch is what the pushed-down filters decode a row's features and
// picked points into. Region scans run a query's filter concurrently, so
// each call takes its own from scratchPool.
type filterScratch struct {
	idx    []int
	boxes  []geo.Rect
	rep    []geo.Point
	one    [1]geo.Point // a single-point row's whole point set
	walked bool         // the row's point stream was walked; wrapWithWindow counts and clears it
}

var scratchPool = sync.Pool{New: func() any { return new(filterScratch) }}

// rowFilter is a pushed-down predicate over one located row: true ships it.
type rowFilter func(v traj.RecordView, s *filterScratch) bool

// localBound evaluates Lemmas 12-14 for a stored row against the query as
// one number: the smallest eps at which every check passes, which therefore
// lower-bounds f(Q,T). The pushed-down filter keeps a row iff that number is
// at most its threshold; a best-first search also refines its held rows in
// order of it. The evaluation abandons as soon as the running maximum exceeds
// cutoff and reports ok = false — the row provably cannot be within cutoff,
// and lb is then only the partial maximum that proved it. cutoff = +Inf never
// abandons.
//
// With upper set, the walk that reads the row's last and representative
// points also couples them with the query (traj.RecordView.Walk), and
// ub is that coupling's cost, an upper bound on f(Q,T); otherwise, and
// whenever the walk is not reached, ub is +Inf.
//
// The checks read the stored bytes cheapest first: the first point (two
// varints), then the feature boxes — the points section is skipped by its
// length prefix — and only a row that survives both has its point stream
// walked, once, for its last and representative points. Bytes that do not
// parse prove nothing, so the row is kept with bound 0: it ships, is refined
// first, and the worker's decode reports it.
func localBound(qg *queryGeom, measure dist.Measure, v traj.RecordView, s *filterScratch, cutoff float64, upper bool) (lb, ub float64, ok bool) {
	ub = math.Inf(1)
	if v.Len() == 0 {
		return math.Inf(1), ub, false
	}
	qpts := qg.points
	endpoints := dist.SupportsEndpointLemma(measure)
	first, err := v.First()
	if err != nil {
		return 0, ub, true
	}

	// Lemma 12: endpoints must match within eps (Fréchet and DTW only). The
	// start points first; the end points wait for the walk.
	if endpoints {
		if lb = qpts[0].Dist(first); lb > cutoff {
			return lb, ub, false
		}
	}

	if s.idx, s.boxes, err = v.Features(s.idx, s.boxes); err != nil {
		return 0, ub, true
	}
	// A row has no boxes when it is a single point, and that point then
	// stands in for them. (Several points and no boxes is not a row this
	// store writes; nothing bounds it.)
	if len(s.boxes) == 0 && v.Len() > 1 {
		return 0, ub, true
	}
	s.one[0] = first

	// Lemma 13, query side: every representative point of Q must be within
	// eps of T's feature boxes (which cover all of T).
	if lb = pointsToBoxes(lb, qg.rep, s.boxes, s.one[:], cutoff); lb > cutoff {
		return lb, ub, false
	}
	// Lemma 14, both sides: every feature box's guaranteed point (one per
	// edge) must reach the other side's boxes within eps.
	if lb = boxesToBoxes(lb, qg.features.Boxes, s.boxes, s.one[:], cutoff); lb > cutoff {
		return lb, ub, false
	}
	if lb = boxesToBoxes(lb, s.boxes, qg.features.Boxes, qpts, cutoff); lb > cutoff {
		return lb, ub, false
	}

	s.walked = true
	var coupled []geo.Point
	if upper {
		coupled = qpts
	}
	var last geo.Point
	if last, s.rep, ub, err = v.Walk(s.idx, s.rep, coupled, measure == dist.DTW); err != nil {
		return 0, math.Inf(1), true
	}
	if endpoints {
		if d := qpts[len(qpts)-1].Dist(last); d > lb {
			if lb = d; lb > cutoff {
				return lb, ub, false
			}
		}
	}
	// Lemma 13, data side: every representative point of T within eps of
	// Q's boxes.
	if lb = pointsToBoxes(lb, s.rep, qg.features.Boxes, qpts, cutoff); lb > cutoff {
		return lb, ub, false
	}
	return lb, ub, true
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

// serverFilter is the coprocessor push-down: the local filter over the
// stored bytes. Rows that fail never leave the region server.
func serverFilter(qg *queryGeom, measure dist.Measure, eps float64) rowFilter {
	return func(v traj.RecordView, s *filterScratch) bool {
		_, _, ok := localBound(qg, measure, v, s, eps, false)
		return ok
	}
}

// endpointOnlyFilter is the reduced push-down of the ablation study and of
// JUST-style systems: Lemma 12 only.
func endpointOnlyFilter(qg *queryGeom, measure dist.Measure, eps float64) rowFilter {
	if !dist.SupportsEndpointLemma(measure) {
		return nil
	}
	return func(v traj.RecordView, s *filterScratch) bool {
		if v.Len() == 0 {
			return false
		}
		first, err := v.First()
		if err != nil {
			return true // unparseable rows ship; the worker's decode reports them
		}
		if qg.points[0].Dist(first) > eps {
			return false
		}
		s.walked = true
		last, _, _, err := v.Walk(nil, nil, nil, false)
		return err != nil || qg.points[len(qg.points)-1].Dist(last) <= eps
	}
}

// buildFilter selects the push-down according to the engine's tuning.
func (e *Engine) buildFilter(qg *queryGeom, eps float64) rowFilter {
	switch {
	case e.tuning.DisableLocalFilter:
		return nil
	case e.tuning.EndpointOnlyFilter:
		return endpointOnlyFilter(qg, e.measure, eps)
	default:
		return serverFilter(qg, e.measure, eps)
	}
}
