package traj

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geo"
)

// RecordView is a stored row value with its four length-prefixed sections
// located and nothing else decoded. The accessors walk the varints of one
// section each, into scratch the caller owns, and allocate nothing: the
// pushed-down filters read a row's first point and feature boxes without
// touching the point stream, and most rows are rejected before anyone does.
// A view aliases the value it was made from and is only as stable as it.
type RecordView struct {
	id  []byte
	n   int    // point count
	pts []byte // the point stream behind its count: n pairs of delta varints
	ft  []byte // the features section
	tm  []byte // the timestamp section; nil in a row written before it existed
}

// section cuts one length-prefixed section off the front of buf.
func section(buf []byte) (body, rest []byte, err error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf)-sz) < n {
		return nil, nil, errCorrupt
	}
	return buf[sz : sz+int(n)], buf[sz+int(n):], nil
}

// pointCount reads the count that opens a points section and returns the
// stream behind it. The count is bounded by what the stream can hold — each
// point is two varints of at least one byte each — so a corrupt count cannot
// make a decoder allocate gigabytes before its loop fails.
func pointCount(buf []byte) (n int, stream []byte, err error) {
	c, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, nil, errCorrupt
	}
	stream = buf[sz:]
	if c > 1<<26 || c > uint64(len(stream))/2 {
		return 0, nil, fmt.Errorf("traj: implausible point count %d for %d bytes", c, len(stream))
	}
	return int(c), stream, nil
}

// ViewRecord locates the sections of a row value written by EncodeRecord. It
// checks the framing — every length prefix in bounds, a point count its
// section can hold — and none of the varints inside the sections; those are
// checked by the accessor that reads them.
func ViewRecord(value []byte) (RecordView, error) {
	var v RecordView
	var pts []byte
	var err error
	if v.id, value, err = section(value); err != nil {
		return RecordView{}, err
	}
	if pts, value, err = section(value); err != nil {
		return RecordView{}, err
	}
	if v.n, v.pts, err = pointCount(pts); err != nil {
		return RecordView{}, err
	}
	if v.ft, value, err = section(value); err != nil {
		return RecordView{}, err
	}
	if len(value) > 0 {
		if v.tm, _, err = section(value); err != nil {
			return RecordView{}, err
		}
	}
	return v, nil
}

// ID returns the trajectory id's bytes, aliasing the row value.
func (v RecordView) ID() []byte { return v.id }

// Len returns the number of points.
func (v RecordView) Len() int { return v.n }

// nextPoint reads one point's delta pair off the front of stream.
func nextPoint(stream []byte) (dx, dy int64, rest []byte, err error) {
	dx, s1 := binary.Varint(stream)
	if s1 <= 0 {
		return 0, 0, nil, errCorrupt
	}
	dy, s2 := binary.Varint(stream[s1:])
	if s2 <= 0 {
		return 0, 0, nil, errCorrupt
	}
	return dx, dy, stream[s1+s2:], nil
}

// First returns the first point, which must exist: two varints.
func (v RecordView) First() (geo.Point, error) {
	x, y, _, err := nextPoint(v.pts)
	if err != nil {
		return geo.Point{}, err
	}
	return geo.Point{X: dequantize(x), Y: dequantize(y)}, nil
}

// Features decodes the DP features into the caller's scratch, which is
// overwritten from its start and returned, grown if it had to be.
func (v RecordView) Features(idx []int, boxes []geo.Rect) ([]int, []geo.Rect, error) {
	return decodeFeaturesInto(v.ft, idx[:0], boxes[:0])
}

// Walk makes one pass over the point stream and returns the last point
// together with the points at the given ascending indexes — a row's
// representative points, from Features — written over out from its start. An
// index past the end or out of order picks nothing. A view of no points
// yields the zero point.
//
// In the same pass it couples the row's points with q along the proportional
// monotone coupling and returns that coupling's cost, an upper bound on the
// distance between q and the decoded points: the largest coupled distance
// when sum is false, which bounds the discrete Fréchet and Hausdorff
// distances, and the coupled distances added in path order when it is true,
// which bounds DTW. Row point j (of m) is coupled with q[i] (of n) for i from
// ⌊j·n/m⌋ to max(⌊j·n/m⌋, ⌊(j+1)·n/m⌋−1): a path from (0,0) to (n−1,m−1)
// through every index of both sides in steps (1,0), (0,1) and (1,1), so it is
// one of the couplings each measure minimises over. The distances are the
// kernels' own (geo.Point.Dist on the same dequantized points), and the path
// order is the order the DTW recurrence adds in, so the bound holds bit for
// bit, not just up to rounding. An empty side couples nothing — pass a nil q
// to skip the coupling — and the bound is then +Inf.
func (v RecordView) Walk(idx []int, out []geo.Point, q []geo.Point, sum bool) (last geo.Point, picked []geo.Point, bound float64, err error) {
	picked = out[:0]
	stream := v.pts
	n, m := len(q), v.n
	var x, y int64
	k := 0
	for j := 0; j < m; j++ {
		var dx, dy int64
		if dx, dy, stream, err = nextPoint(stream); err != nil {
			return geo.Point{}, picked, 0, err
		}
		x += dx
		y += dy
		for ; k < len(idx) && idx[k] <= j; k++ {
			if idx[k] == j {
				picked = append(picked, geo.Point{X: dequantize(x), Y: dequantize(y)})
			}
		}
		if n == 0 {
			continue
		}
		p := geo.Point{X: dequantize(x), Y: dequantize(y)}
		lo := j * n / m
		for i := lo; i <= max(lo, (j+1)*n/m-1); i++ {
			d := q[i].Dist(p)
			if sum {
				bound += d
			} else if d > bound {
				bound = d
			}
		}
	}
	if n == 0 || m == 0 {
		bound = math.Inf(1)
	}
	return geo.Point{X: dequantize(x), Y: dequantize(y)}, picked, bound, nil
}

// AnyPointIn reports whether some point lies in the closed rectangle r,
// reading no further than the first that does.
func (v RecordView) AnyPointIn(r geo.Rect) (bool, error) {
	stream := v.pts
	var x, y int64
	for i := 0; i < v.n; i++ {
		dx, dy, rest, err := nextPoint(stream)
		if err != nil {
			return false, err
		}
		stream = rest
		x += dx
		y += dy
		if r.ContainsPoint(geo.Point{X: dequantize(x), Y: dequantize(y)}) {
			return true, nil
		}
	}
	return false, nil
}

// TimeBounds returns the row's timestamp range in one pass over the
// timestamp section, or timed = false for an untimed row. As in DecodeRecord,
// a timed row carries exactly one timestamp per point.
func (v RecordView) TimeBounds() (min, max int64, timed bool, err error) {
	if v.tm == nil {
		return 0, 0, false, nil
	}
	n, sz := binary.Uvarint(v.tm)
	if sz <= 0 {
		return 0, 0, false, errCorrupt
	}
	if n == 0 {
		return 0, 0, false, nil
	}
	if n != uint64(v.n) {
		return 0, 0, false, fmt.Errorf("traj: %d timestamps for %d points", n, v.n)
	}
	buf := v.tm[sz:]
	var t int64
	for i := 0; i < v.n; i++ {
		d, s := binary.Varint(buf)
		if s <= 0 {
			return 0, 0, false, errCorrupt
		}
		buf = buf[s:]
		t += d
		if i == 0 || t < min {
			min = t
		}
		if i == 0 || t > max {
			max = t
		}
	}
	return min, max, true, nil
}
