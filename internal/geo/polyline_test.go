package geo

import "testing"

func TestClamp01(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1},
	} {
		if got := Clamp01(tc.in); got != tc.want {
			t.Errorf("Clamp01(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	p := Point{X: 0.25, Y: 0.75}
	if p.String() == "" {
		t.Error("empty point string")
	}
	r := Rect{Min: p, Max: p}
	if r.String() == "" {
		t.Error("empty rect string")
	}
}

func TestSegmentBounds(t *testing.T) {
	s := Segment{A: Point{X: 0.8, Y: 0.2}, B: Point{X: 0.3, Y: 0.9}}
	b := SegmentBounds(s)
	want := Rect{Min: Point{X: 0.3, Y: 0.2}, Max: Point{X: 0.8, Y: 0.9}}
	if b != want {
		t.Fatalf("SegmentBounds = %v, want %v", b, want)
	}
	// Axis-parallel segment: bounds are the segment; rect distance to the
	// bounds equals exact segment distance.
	h := Segment{A: Point{X: 0.2, Y: 0.5}, B: Point{X: 0.8, Y: 0.5}}
	target := Rect{Min: Point{X: 0.4, Y: 0.8}, Max: Point{X: 0.5, Y: 0.9}}
	exact := DistSegmentRect(h, target)
	viaBounds := DistRectRect(SegmentBounds(h), target)
	if !almostEq(exact, viaBounds) {
		t.Fatalf("axis-parallel fast path %v != exact %v", viaBounds, exact)
	}
}
