package traj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
)

// Binary codecs for trajectory values stored in the KV substrate. The format
// mirrors the column layout of Table I: points, dp-points (indexes of the
// representative points), and dp-mbrs (the per-gap bounding boxes). Points
// are delta-encoded as scaled varints, which is what keeps the value payload
// comparable to what a production store would write.

// coordScale converts normalized [0,1) coordinates to integer space with
// ~1e-9 resolution (finer than any index resolution we use).
const coordScale = 1 << 30

var errCorrupt = errors.New("traj: corrupt encoding")

func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func appendVarint(dst []byte, v int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func quantize(v float64) int64 { return int64(math.Round(v * coordScale)) }

func dequantize(v int64) float64 { return float64(v) / coordScale }

// EncodePoints serializes a point sequence with delta varint encoding.
func EncodePoints(pts []geo.Point) []byte {
	buf := make([]byte, 0, 4+len(pts)*6)
	buf = appendUvarint(buf, uint64(len(pts)))
	var px, py int64
	for _, p := range pts {
		x, y := quantize(p.X), quantize(p.Y)
		buf = appendVarint(buf, x-px)
		buf = appendVarint(buf, y-py)
		px, py = x, y
	}
	return buf
}

// DecodePoints is the inverse of EncodePoints.
func DecodePoints(buf []byte) ([]geo.Point, error) {
	n, stream, err := pointCount(buf)
	if err != nil {
		return nil, err
	}
	return decodePointStream(stream, n)
}

// decodePointStream materializes the n points of a delta-varint stream.
func decodePointStream(stream []byte, n int) ([]geo.Point, error) {
	pts := make([]geo.Point, n)
	var px, py int64
	for i := range pts {
		dx, dy, rest, err := nextPoint(stream)
		if err != nil {
			return nil, err
		}
		stream = rest
		px += dx
		py += dy
		pts[i] = geo.Point{X: dequantize(px), Y: dequantize(py)}
	}
	return pts, nil
}

// EncodeFeatures serializes DP features (indexes then boxes).
func EncodeFeatures(f *Features) []byte {
	buf := make([]byte, 0, 8+len(f.PointIdx)*2+len(f.Boxes)*12)
	buf = appendUvarint(buf, uint64(len(f.PointIdx)))
	prev := 0
	for _, idx := range f.PointIdx {
		buf = appendUvarint(buf, uint64(idx-prev))
		prev = idx
	}
	buf = appendUvarint(buf, uint64(len(f.Boxes)))
	for _, b := range f.Boxes {
		buf = appendVarint(buf, quantize(b.Min.X))
		buf = appendVarint(buf, quantize(b.Min.Y))
		buf = appendVarint(buf, quantize(b.Max.X))
		buf = appendVarint(buf, quantize(b.Max.Y))
	}
	return buf
}

// DecodeFeatures is the inverse of EncodeFeatures.
func DecodeFeatures(buf []byte) (*Features, error) {
	idx, boxes, err := decodeFeaturesInto(buf, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Features{PointIdx: idx, Boxes: boxes}, nil
}

// decodeFeaturesInto appends the indexes and boxes of a features section to
// idx and boxes, allocating only what their capacity lacks.
func decodeFeaturesInto(buf []byte, idx []int, boxes []geo.Rect) ([]int, []geo.Rect, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return idx, boxes, errCorrupt
	}
	buf = buf[sz:]
	// Each index delta is at least one byte; cap the allocation accordingly.
	if n > 1<<26 || n > uint64(len(buf)) {
		return idx, boxes, fmt.Errorf("traj: implausible feature count %d for %d bytes", n, len(buf))
	}
	idx = slices.Grow(idx, int(n))
	prev := 0
	for i := 0; i < int(n); i++ {
		d, s := binary.Uvarint(buf)
		if s <= 0 {
			return idx, boxes, errCorrupt
		}
		buf = buf[s:]
		prev += int(d)
		idx = append(idx, prev)
	}
	m, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return idx, boxes, errCorrupt
	}
	buf = buf[sz:]
	// Each box is four varints of at least one byte each.
	if m > 1<<26 || m > uint64(len(buf))/4 {
		return idx, boxes, fmt.Errorf("traj: implausible box count %d for %d bytes", m, len(buf))
	}
	boxes = slices.Grow(boxes, int(m))
	for i := 0; i < int(m); i++ {
		var vals [4]int64
		for j := range vals {
			v, s := binary.Varint(buf)
			if s <= 0 {
				return idx, boxes, errCorrupt
			}
			buf = buf[s:]
			vals[j] = v
		}
		boxes = append(boxes, geo.Rect{
			Min: geo.Point{X: dequantize(vals[0]), Y: dequantize(vals[1])},
			Max: geo.Point{X: dequantize(vals[2]), Y: dequantize(vals[3])},
		})
	}
	return idx, boxes, nil
}

// Record bundles everything TraSS stores per trajectory row.
type Record struct {
	ID       string
	Points   []geo.Point
	Times    []int64 // optional per-point Unix seconds; nil when untimed
	Features *Features
}

// TimeBounds returns the record's timestamp range, or ok=false when untimed.
func (r *Record) TimeBounds() (min, max int64, ok bool) {
	return timeBounds(r.Times)
}

// encodeTimes delta-encodes per-point timestamps.
func encodeTimes(times []int64) []byte {
	buf := make([]byte, 0, 2+len(times)*2)
	buf = appendUvarint(buf, uint64(len(times)))
	var prev int64
	for _, v := range times {
		buf = appendVarint(buf, v-prev)
		prev = v
	}
	return buf
}

func decodeTimes(buf []byte) ([]int64, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return nil, errCorrupt
	}
	buf = buf[sz:]
	if n == 0 {
		return nil, nil
	}
	// Each timestamp delta is at least one byte.
	if n > 1<<26 || n > uint64(len(buf)) {
		return nil, fmt.Errorf("traj: implausible timestamp count %d for %d bytes", n, len(buf))
	}
	out := make([]int64, n)
	var prev int64
	for i := range out {
		d, s := binary.Varint(buf)
		if s <= 0 {
			return nil, errCorrupt
		}
		buf = buf[s:]
		prev += d
		out[i] = prev
	}
	return out, nil
}

// EncodeRecord serializes a full trajectory row value. The timestamp section
// is always present (possibly empty) as the fourth field.
func EncodeRecord(r *Record) []byte {
	pts := EncodePoints(r.Points)
	ft := EncodeFeatures(r.Features)
	tm := encodeTimes(r.Times)
	buf := make([]byte, 0, len(r.ID)+len(pts)+len(ft)+len(tm)+16)
	buf = appendUvarint(buf, uint64(len(r.ID)))
	buf = append(buf, r.ID...)
	buf = appendUvarint(buf, uint64(len(pts)))
	buf = append(buf, pts...)
	buf = appendUvarint(buf, uint64(len(ft)))
	buf = append(buf, ft...)
	buf = appendUvarint(buf, uint64(len(tm)))
	buf = append(buf, tm...)
	return buf
}

// DecodeRecord is the inverse of EncodeRecord, and the one full decoder: it
// decodes every section ViewRecord locates.
func DecodeRecord(buf []byte) (*Record, error) {
	v, err := ViewRecord(buf)
	if err != nil {
		return nil, err
	}
	pts, err := decodePointStream(v.pts, v.n)
	if err != nil {
		return nil, err
	}
	ft, err := DecodeFeatures(v.ft)
	if err != nil {
		return nil, err
	}
	rec := &Record{ID: string(v.id), Points: pts, Features: ft}
	if v.tm == nil {
		return rec, nil // row written before the timestamp section existed
	}
	times, err := decodeTimes(v.tm)
	if err != nil {
		return nil, err
	}
	if times != nil && len(times) != len(pts) {
		return nil, fmt.Errorf("traj: %d timestamps for %d points", len(times), len(pts))
	}
	rec.Times = times
	return rec, nil
}
