// Package traj defines the trajectory model used by TraSS: the point
// sequence itself, its minimum bounding rectangle, the Douglas-Peucker
// representative features of Section IV-D, and the compact binary codecs used
// to store trajectories in the key-value substrate.
package traj

import (
	"fmt"

	"repro/internal/geo"
)

// Trajectory is an ordered sequence of points with an identifier
// (Definition 1 of the paper). Points live in the normalized plane [0,1)².
// Times optionally carries one Unix-seconds timestamp per point; the paper's
// index is purely spatial, so timestamps never influence indexing — they
// feed the time-window query filters.
type Trajectory struct {
	ID     string
	Points []geo.Point
	Times  []int64 // nil, or len(Times) == len(Points)
}

// New constructs a trajectory, copying pts so the caller may reuse its slice.
// It panics on an empty point sequence: the paper's model has no empty
// trajectories and every downstream invariant assumes at least one point.
func New(id string, pts []geo.Point) *Trajectory {
	if len(pts) == 0 {
		panic("traj: empty trajectory " + id)
	}
	cp := make([]geo.Point, len(pts))
	copy(cp, pts)
	return &Trajectory{ID: id, Points: cp}
}

// NewTimed is New with per-point Unix-seconds timestamps. It panics when the
// lengths disagree — a timestamped trajectory with missing fixes is a caller
// bug this package cannot repair.
func NewTimed(id string, pts []geo.Point, times []int64) *Trajectory {
	t := New(id, pts)
	if len(times) != len(pts) {
		panic("traj: timestamp count does not match point count for " + id)
	}
	t.Times = append([]int64(nil), times...)
	return t
}

// TimeBounds returns the minimum and maximum timestamp, or ok=false for an
// untimed trajectory.
func (t *Trajectory) TimeBounds() (min, max int64, ok bool) {
	return timeBounds(t.Times)
}

func timeBounds(times []int64) (min, max int64, ok bool) {
	if len(times) == 0 {
		return 0, 0, false
	}
	min, max = times[0], times[0]
	for _, v := range times[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, true
}

// Len returns the number of points.
func (t *Trajectory) Len() int { return len(t.Points) }

// Start returns the first point.
func (t *Trajectory) Start() geo.Point { return t.Points[0] }

// End returns the last point.
func (t *Trajectory) End() geo.Point { return t.Points[len(t.Points)-1] }

// MBR returns the minimum bounding rectangle of the trajectory.
func (t *Trajectory) MBR() geo.Rect { return geo.MBRPoints(t.Points) }

func (t *Trajectory) String() string {
	return fmt.Sprintf("Trajectory(%s, %d points)", t.ID, len(t.Points))
}

// Features are the pre-computed representative features of a trajectory
// (Section IV-D): the indexes of the Douglas-Peucker representative points
// and one bounding box per gap between successive representative points. The
// bounding box at position i covers every raw point with index in
// [PointIdx[i], PointIdx[i+1]] — both representative endpoints included, so
// the union of boxes covers the whole trajectory.
type Features struct {
	PointIdx []int      // indexes of representative points, ascending, first=0, last=len-1
	Boxes    []geo.Rect // len(Boxes) == len(PointIdx)-1, or 0 for single-point trajectories
}

// RepPoints materializes the representative points of t according to f.
func (f *Features) RepPoints(t *Trajectory) []geo.Point {
	pts := make([]geo.Point, len(f.PointIdx))
	for i, idx := range f.PointIdx {
		pts[i] = t.Points[idx]
	}
	return pts
}

// DouglasPeucker computes the representative-point indexes of pts with
// tolerance theta: the polyline through the returned indexes stays within
// theta of every original point. The first and last indexes are always
// included. The implementation is iterative (explicit stack) so that deep
// recursions on long trajectories cannot overflow the goroutine stack.
func DouglasPeucker(pts []geo.Point, theta float64) []int {
	n := len(pts)
	switch n {
	case 0:
		return nil
	case 1:
		return []int{0}
	case 2:
		return []int{0, 1}
	}
	keep := make([]bool, n)
	keep[0], keep[n-1] = true, true

	type span struct{ lo, hi int }
	stack := []span{{0, n - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		seg := geo.Segment{A: pts[s.lo], B: pts[s.hi]}
		worst, worstIdx := -1.0, -1
		for i := s.lo + 1; i < s.hi; i++ {
			d := geo.DistPointSegment(pts[i], seg)
			if d > worst {
				worst, worstIdx = d, i
			}
		}
		if worst > theta {
			keep[worstIdx] = true
			stack = append(stack, span{s.lo, worstIdx}, span{worstIdx, s.hi})
		}
	}

	idx := make([]int, 0, 8)
	for i, k := range keep {
		if k {
			idx = append(idx, i)
		}
	}
	return idx
}

// ComputeFeatures runs Douglas-Peucker with tolerance theta on t and builds
// the per-gap bounding boxes. The paper pre-computes these before storing a
// trajectory so queries never re-derive them.
func ComputeFeatures(t *Trajectory, theta float64) *Features {
	idx := DouglasPeucker(t.Points, theta)
	f := &Features{PointIdx: idx}
	if len(idx) < 2 {
		return f
	}
	f.Boxes = make([]geo.Rect, len(idx)-1)
	for i := 0; i+1 < len(idx); i++ {
		f.Boxes[i] = geo.MBRPoints(t.Points[idx[i] : idx[i+1]+1])
	}
	return f
}

// DistPointBoxes returns the minimum distance from p to the union of boxes.
// It lower-bounds the distance from p to the trajectory the boxes cover,
// which is what Lemma 13 needs.
func DistPointBoxes(p geo.Point, boxes []geo.Rect) float64 {
	best := -1.0
	for _, b := range boxes {
		d := geo.DistPointRect(p, b)
		if best < 0 || d < best {
			best = d
			if best == 0 {
				return 0
			}
		}
	}
	if best < 0 {
		// No boxes: single-point trajectory; callers must fall back to the
		// point itself. Returning +inf would wrongly prune, so return 0
		// (no pruning evidence).
		return 0
	}
	return best
}

// DistSegmentBoxes returns the minimum distance from an AXIS-PARALLEL
// segment s to the union of boxes (zero if it touches any box). Every caller
// passes MBR edges, which are axis-parallel by construction, so the exact
// distance is the rect-rect distance of the segment's bounds.
func DistSegmentBoxes(s geo.Segment, boxes []geo.Rect) float64 {
	sb := geo.SegmentBounds(s)
	best := -1.0
	for _, b := range boxes {
		d := geo.DistRectRect(sb, b)
		if best < 0 || d < best {
			best = d
			if best == 0 {
				return 0
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}
