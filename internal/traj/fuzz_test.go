package traj

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
)

// fuzzTol returns the acceptable coordinate drift after one
// quantize/dequantize cycle: half a quantum plus float64 rounding that grows
// with magnitude (fuzzed records may hold coordinates far outside [0,1)).
func fuzzTol(x float64) float64 {
	return 0.5/coordScale + math.Abs(x)*1e-9
}

func pointsClose(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].X-b[i].X) > fuzzTol(a[i].X) || math.Abs(a[i].Y-b[i].Y) > fuzzTol(a[i].Y) {
			return false
		}
	}
	return true
}

// checkViewAgainstDecode holds RecordView to DecodeRecord's outcome (rec, err)
// on the same bytes: the view never panics and never reads outside data,
// whatever the bytes; whatever the decoder accepts the view accepts, and every
// accessor agrees with the decoded record bit for bit.
func checkViewAgainstDecode(t *testing.T, data []byte, rec *Record, decErr error) {
	// A copy with no spare capacity, so that reading past the value panics.
	data = append(make([]byte, 0, len(data)), data...)
	v, err := ViewRecord(data[:len(data):len(data)])
	if err != nil {
		if decErr == nil {
			t.Fatalf("DecodeRecord accepted what ViewRecord refuses: %v", err)
		}
		return
	}
	first, firstErr := v.First()
	idx, boxes, ftErr := v.Features(nil, nil)
	last, picked, walkErr := v.Walk(idx, nil)
	tmin, tmax, timed, tmErr := v.TimeBounds()
	_, anyErr := v.AnyPointIn(geo.Rect{Min: geo.Point{X: 2, Y: 2}, Max: geo.Point{X: 3, Y: 3}})
	if decErr != nil {
		return // accessors may fail on what the decoder refuses; they may not panic
	}

	if string(v.ID()) != rec.ID || v.Len() != len(rec.Points) {
		t.Fatalf("view id %q, %d points; decoded %q, %d", v.ID(), v.Len(), rec.ID, len(rec.Points))
	}
	if ftErr != nil || walkErr != nil || tmErr != nil || anyErr != nil || (firstErr != nil && v.Len() > 0) {
		t.Fatalf("accessors failed on a decodable row: first %v, features %v, walk %v, times %v, any %v",
			firstErr, ftErr, walkErr, tmErr, anyErr)
	}
	if !slices.Equal(idx, rec.Features.PointIdx) || !slices.Equal(boxes, rec.Features.Boxes) {
		t.Fatalf("view features (%v, %v), decoded (%v, %v)", idx, boxes, rec.Features.PointIdx, rec.Features.Boxes)
	}
	if wmin, wmax, wtimed := rec.TimeBounds(); tmin != wmin || tmax != wmax || timed != wtimed {
		t.Fatalf("view time bounds (%d, %d, %v), decoded (%d, %d, %v)", tmin, tmax, timed, wmin, wmax, wtimed)
	}
	if len(rec.Points) == 0 {
		return
	}
	if first != rec.Points[0] || last != rec.Points[len(rec.Points)-1] {
		t.Fatalf("view endpoints %v, %v; decoded %v, %v", first, last, rec.Points[0], rec.Points[len(rec.Points)-1])
	}
	if slices.IsSorted(idx) {
		var want []geo.Point
		for _, i := range idx {
			if i >= 0 && i < len(rec.Points) {
				want = append(want, rec.Points[i])
			}
		}
		if !slices.Equal(picked, want) {
			t.Fatalf("Walk picked %v at %v, decoded points there are %v", picked, idx, want)
		}
	}
	mid := rec.Points[len(rec.Points)/2]
	for _, r := range []geo.Rect{
		{Min: mid, Max: mid},
		{Min: first, Max: last},
		{Min: geo.Point{X: mid.X + 1e-9, Y: mid.Y}, Max: geo.Point{X: mid.X + 1, Y: mid.Y + 1}},
		geo.MBRPoints(rec.Points[:1+len(rec.Points)/3]),
	} {
		got, err := v.AnyPointIn(r)
		if want := slices.ContainsFunc(rec.Points, r.ContainsPoint); err != nil || got != want {
			t.Fatalf("AnyPointIn(%v) = %v, %v; the decoded points say %v", r, got, err, want)
		}
	}
}

// FuzzTrajCodec feeds arbitrary bytes to the record decoder and the record
// view: neither may panic or over-allocate, the view must agree with the
// decoder, and anything accepted must survive an encode/decode round trip
// with identical structure.
func FuzzTrajCodec(f *testing.F) {
	rec := &Record{
		ID:     "t-001",
		Points: []geo.Point{{X: 0.1, Y: 0.2}, {X: 0.15, Y: 0.22}, {X: 0.3, Y: 0.1}},
		Times:  []int64{1700000000, 1700000060, 1700000120},
		Features: &Features{
			PointIdx: []int{0, 2},
			Boxes:    []geo.Rect{{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.3, Y: 0.22}}},
		},
	}
	f.Add(EncodeRecord(rec))
	f.Add(EncodeRecord(&Record{ID: "", Points: nil, Features: &Features{}}))
	f.Add(EncodeRecord(&Record{ID: "one", Points: rec.Points[:1], Features: &Features{PointIdx: []int{0}}}))
	f.Add(EncodeRecord(rec)[:len(EncodeRecord(rec))-len(encodeTimes(rec.Times))-1]) // a row from before the timestamp section
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint count
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		checkViewAgainstDecode(t, data, rec, err)
		if err != nil {
			return // rejected input is fine; panics and OOMs are not
		}
		reenc := EncodeRecord(rec)
		rec2, err := DecodeRecord(reenc)
		if err != nil {
			t.Fatalf("re-decode of a decoded record failed: %v", err)
		}
		if rec2.ID != rec.ID {
			t.Fatalf("ID changed across round trip: %q -> %q", rec.ID, rec2.ID)
		}
		if !pointsClose(rec.Points, rec2.Points) {
			t.Fatalf("points drifted across round trip:\n%v\n%v", rec.Points, rec2.Points)
		}
		if len(rec2.Times) != len(rec.Times) {
			t.Fatalf("timestamp count changed: %d -> %d", len(rec.Times), len(rec2.Times))
		}
		for i := range rec.Times {
			if rec.Times[i] != rec2.Times[i] {
				t.Fatalf("timestamp %d changed: %d -> %d", i, rec.Times[i], rec2.Times[i])
			}
		}
		if len(rec2.Features.PointIdx) != len(rec.Features.PointIdx) ||
			len(rec2.Features.Boxes) != len(rec.Features.Boxes) {
			t.Fatalf("feature shape changed: (%d,%d) -> (%d,%d)",
				len(rec.Features.PointIdx), len(rec.Features.Boxes),
				len(rec2.Features.PointIdx), len(rec2.Features.Boxes))
		}
		for i := range rec.Features.PointIdx {
			if rec.Features.PointIdx[i] != rec2.Features.PointIdx[i] {
				t.Fatalf("feature index %d changed: %d -> %d",
					i, rec.Features.PointIdx[i], rec2.Features.PointIdx[i])
			}
		}
		// Timestamps, when present, were validated against the point count.
		if rec.Times != nil && len(rec.Times) != len(rec.Points) {
			t.Fatalf("decoder accepted %d timestamps for %d points", len(rec.Times), len(rec.Points))
		}

		// A second encode must be byte-identical: dequantize/quantize is
		// idempotent after the first cycle, so the format is canonical.
		if !bytes.Equal(reenc, EncodeRecord(rec2)) {
			t.Fatal("encoding is not canonical: re-encoding a round-tripped record changed bytes")
		}
	})
}

// FuzzPointsRoundTrip drives the structured point codec with in-domain
// coordinates derived from the fuzz input: encode must be lossless up to one
// quantum per coordinate.
func FuzzPointsRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pts []geo.Point
		for i := 0; i+4 <= len(data); i += 4 {
			// Two 16-bit fixed-point coordinates per point, spanning [0,1).
			x := float64(uint16(data[i])|uint16(data[i+1])<<8) / 65536
			y := float64(uint16(data[i+2])|uint16(data[i+3])<<8) / 65536
			pts = append(pts, geo.Point{X: x, Y: y})
		}
		dec, err := DecodePoints(EncodePoints(pts))
		if err != nil {
			t.Fatalf("decode of a fresh encoding failed: %v", err)
		}
		if len(dec) != len(pts) {
			t.Fatalf("point count changed: %d -> %d", len(pts), len(dec))
		}
		for i := range pts {
			if math.Abs(dec[i].X-pts[i].X) > 0.5/coordScale || math.Abs(dec[i].Y-pts[i].Y) > 0.5/coordScale {
				t.Fatalf("point %d drifted: %v -> %v", i, pts[i], dec[i])
			}
		}
	})
}
