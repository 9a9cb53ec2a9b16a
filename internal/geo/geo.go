// Package geo provides the planar geometry kernels used throughout TraSS:
// points, rectangles, segments, and the exact minimum-distance routines the
// pruning lemmas of the paper are built on.
//
// All coordinates are in the normalized index plane [0,1)². Callers that work
// in longitude/latitude should normalize first (see NormalizeLonLat).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the normalized plane.
type Point struct {
	X, Y float64
}

// Sub returns p - q as a vector (represented as a Point).
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q. Coordinates live in
// the unit square, so plain sqrt is safe (math.Hypot's overflow guards cost
// several times more and are never needed here).
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids the
// square root on hot paths; compare against squared thresholds.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

func (p Point) String() string { return fmt.Sprintf("(%.6f,%.6f)", p.X, p.Y) }

// Segment is the closed line segment from A to B.
type Segment struct {
	A, B Point
}

// Rect is an axis-parallel rectangle. Min is the lower-left corner and Max the
// upper-right corner; Min.X <= Max.X and Min.Y <= Max.Y for a valid Rect.
// A Rect is treated as a closed region for distance purposes.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Extend/Union: a rect that
// contains nothing and yields the other operand when merged.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r is the empty rectangle (contains no points).
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the X extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r, or 0 for an empty rect.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// ContainsPoint reports whether p lies in the closed rectangle r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether the closed rectangles r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Union returns the smallest rect containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Buffer returns r extended by eps on every side. This is the paper's
// Ext(MBR, ε) operation (Definition 7).
func (r Rect) Buffer(eps float64) Rect {
	return Rect{
		Min: Point{r.Min.X - eps, r.Min.Y - eps},
		Max: Point{r.Max.X + eps, r.Max.Y + eps},
	}
}

// Edges returns the four edges of r in order bottom, right, top, left.
func (r Rect) Edges() [4]Segment {
	bl := r.Min
	br := Point{r.Max.X, r.Min.Y}
	tr := r.Max
	tl := Point{r.Min.X, r.Max.Y}
	return [4]Segment{{bl, br}, {br, tr}, {tr, tl}, {tl, bl}}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Min, r.Max)
}

// DistPointRect returns the minimum distance from p to the closed rect r
// (zero if p is inside r).
func DistPointRect(p Point, r Rect) float64 {
	dx := math.Max(math.Max(r.Min.X-p.X, 0), p.X-r.Max.X)
	dy := math.Max(math.Max(r.Min.Y-p.Y, 0), p.Y-r.Max.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// DistRectRect returns the minimum distance between closed rects r and s
// (zero if they intersect).
func DistRectRect(r, s Rect) float64 {
	dx := math.Max(math.Max(r.Min.X-s.Max.X, 0), s.Min.X-r.Max.X)
	dy := math.Max(math.Max(r.Min.Y-s.Max.Y, 0), s.Min.Y-r.Max.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

// DistPointSegment returns the minimum distance from p to segment s.
func DistPointSegment(p Point, s Segment) float64 {
	return math.Sqrt(dist2PointSegment(p, s))
}

func dist2PointSegment(p Point, s Segment) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p.Dist2(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	proj := Point{s.A.X + t*d.X, s.A.Y + t*d.Y}
	return p.Dist2(proj)
}

// SegmentsIntersect reports whether segments s1 and s2 share at least one
// point (including touching endpoints and collinear overlap).
func SegmentsIntersect(s1, s2 Segment) bool {
	d1 := cross(s2.A, s2.B, s1.A)
	d2 := cross(s2.A, s2.B, s1.B)
	d3 := cross(s1.A, s1.B, s2.A)
	d4 := cross(s1.A, s1.B, s2.B)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	// Exact zero cross products are the standard collinear-case predicate of
	// the CCW intersection test; an epsilon here would misclassify near-misses
	// as touching.
	switch {
	case d1 == 0 && onSegment(s2.A, s2.B, s1.A):
		return true
	case d2 == 0 && onSegment(s2.A, s2.B, s1.B):
		return true
	case d3 == 0 && onSegment(s1.A, s1.B, s2.A):
		return true
	case d4 == 0 && onSegment(s1.A, s1.B, s2.B):
		return true
	}
	return false
}

// cross returns the z component of (b-a) × (c-a).
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment assumes p is collinear with a-b and reports whether p lies within
// the segment's bounding box.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// DistSegmentSegment returns the minimum distance between two segments
// (zero if they intersect).
func DistSegmentSegment(s1, s2 Segment) float64 {
	if SegmentsIntersect(s1, s2) {
		return 0
	}
	d := dist2PointSegment(s1.A, s2)
	if v := dist2PointSegment(s1.B, s2); v < d {
		d = v
	}
	if v := dist2PointSegment(s2.A, s1); v < d {
		d = v
	}
	if v := dist2PointSegment(s2.B, s1); v < d {
		d = v
	}
	return math.Sqrt(d)
}

// SegmentIntersectsRect reports whether segment s shares any point with the
// closed rect r.
func SegmentIntersectsRect(s Segment, r Rect) bool {
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	// The segment can only cross the rect by crossing one of its edges.
	for _, e := range r.Edges() {
		if SegmentsIntersect(s, e) {
			return true
		}
	}
	return false
}

// DistSegmentRect returns the minimum distance between segment s and the
// closed rect r (zero if they intersect).
func DistSegmentRect(s Segment, r Rect) float64 {
	if SegmentIntersectsRect(s, r) {
		return 0
	}
	d := math.Inf(1)
	for _, e := range r.Edges() {
		if v := DistSegmentSegment(s, e); v < d {
			d = v
		}
	}
	return d
}

// SegmentBounds returns the bounding rect of a segment. For an axis-parallel
// segment the bounds are the segment itself, so DistRectRect against them is
// the exact segment distance — the fast path every MBR-edge computation in
// the pruning lemmas uses.
func SegmentBounds(s Segment) Rect {
	return Rect{
		Min: Point{X: math.Min(s.A.X, s.B.X), Y: math.Min(s.A.Y, s.B.Y)},
		Max: Point{X: math.Max(s.A.X, s.B.X), Y: math.Max(s.A.Y, s.B.Y)},
	}
}

// MBRPoints returns the minimum bounding rectangle of pts. It panics if pts
// is empty: an MBR of nothing is a caller bug, not a recoverable state.
func MBRPoints(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geo: MBRPoints of empty slice")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}

// World is the normalized index plane.
var World = Rect{Min: Point{0, 0}, Max: Point{1, 1}}

// NormalizeLonLat maps a longitude/latitude pair onto the normalized plane.
func NormalizeLonLat(lon, lat float64) Point {
	return Point{X: (lon + 180) / 360, Y: (lat + 90) / 180}
}

// DenormalizeLonLat is the inverse of NormalizeLonLat.
func DenormalizeLonLat(p Point) (lon, lat float64) {
	return p.X*360 - 180, p.Y*180 - 90
}

// CheckUnit returns an error naming the first of pts that is not a finite
// location inside the closed unit square [0,1]² — the plane every index and
// pruning routine assumes, and the one Clamp01, NormalizeLonLat and the
// generators produce. NaN and ±Inf fail the range comparisons like any other
// out-of-plane value, so the one test covers them.
func CheckUnit(pts ...Point) error {
	for i, p := range pts {
		if !(p.X >= 0 && p.X <= 1 && p.Y >= 0 && p.Y <= 1) {
			return fmt.Errorf("point %d (%v, %v) is not inside the unit square [0,1]²", i, p.X, p.Y)
		}
	}
	return nil
}

// Clamp01 clamps v into [0,1].
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
