package geo

import "math"

// DistPointPolyline returns the minimum distance from p to the polyline
// through pts. A polyline with a single point degenerates to that point.
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
