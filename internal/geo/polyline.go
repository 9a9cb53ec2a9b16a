package geo

import "math"

// Polyline distance helpers. A polyline with a single point degenerates to
// that point; every routine below handles that case.

// DistPointPolyline returns the minimum distance from p to the polyline
// through pts.
func DistPointPolyline(p Point, pts []Point) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	if len(pts) == 1 {
		return p.Dist(pts[0])
	}
	best := math.Inf(1)
	for i := 0; i+1 < len(pts); i++ {
		if v := dist2PointSegment(p, Segment{pts[i], pts[i+1]}); v < best {
			best = v
		}
	}
	return math.Sqrt(best)
}

// DistRectPolyline returns the minimum distance between the closed rect r and
// the polyline through pts (zero if they touch).
func DistRectPolyline(r Rect, pts []Point) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	if len(pts) == 1 {
		return DistPointRect(pts[0], r)
	}
	best := math.Inf(1)
	for i := 0; i+1 < len(pts); i++ {
		v := DistSegmentRect(Segment{pts[i], pts[i+1]}, r)
		if v < best {
			best = v
			if best == 0 {
				return 0
			}
		}
	}
	return best
}

// PolylineIntersectsRect reports whether the polyline through pts shares any
// point with the closed rect r.
func PolylineIntersectsRect(pts []Point, r Rect) bool {
	if len(pts) == 0 {
		return false
	}
	if len(pts) == 1 {
		return r.ContainsPoint(pts[0])
	}
	for i := 0; i+1 < len(pts); i++ {
		if SegmentIntersectsRect(Segment{pts[i], pts[i+1]}, r) {
			return true
		}
	}
	return false
}

// DistSegmentPolyline returns the minimum distance between segment s and the
// polyline through pts.
func DistSegmentPolyline(s Segment, pts []Point) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	if len(pts) == 1 {
		return DistPointSegment(pts[0], s)
	}
	best := math.Inf(1)
	for i := 0; i+1 < len(pts); i++ {
		v := DistSegmentSegment(s, Segment{pts[i], pts[i+1]})
		if v < best {
			best = v
			if best == 0 {
				return 0
			}
		}
	}
	return best
}
