package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPointDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{1, 0}, 2},
	}
	for _, tc := range tests {
		if got := tc.p.Dist(tc.q); !almostEq(got, tc.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
		if got := tc.p.Dist2(tc.q); !almostEq(got, tc.want*tc.want) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Point{0.2, 0.3}, Point{0.6, 0.5}}
	if !almostEq(r.Width(), 0.4) || !almostEq(r.Height(), 0.2) {
		t.Fatalf("width/height wrong: %v %v", r.Width(), r.Height())
	}
	if !almostEq(r.Area(), 0.08) {
		t.Fatalf("area = %v", r.Area())
	}
	c := r.Center()
	if !almostEq(c.X, 0.4) || !almostEq(c.Y, 0.4) {
		t.Fatalf("center = %v", c)
	}
	if !r.ContainsPoint(Point{0.2, 0.3}) || !r.ContainsPoint(Point{0.6, 0.5}) {
		t.Error("corners must be contained (closed rect)")
	}
	if r.ContainsPoint(Point{0.61, 0.4}) {
		t.Error("point outside reported inside")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 {
		t.Fatal("empty rect area must be 0")
	}
	r := Rect{Point{0, 0}, Point{1, 1}}
	if got := e.Union(r); got != r {
		t.Errorf("empty ∪ r = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r ∪ empty = %v, want %v", got, r)
	}
	if e.Intersects(r) {
		t.Error("empty rect must intersect nothing")
	}
	if !r.ContainsRect(e) {
		t.Error("every rect contains the empty rect")
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{Point{0, 0}, Point{1, 1}}
	tests := []struct {
		b    Rect
		want bool
	}{
		{Rect{Point{0.5, 0.5}, Point{2, 2}}, true},
		{Rect{Point{1, 1}, Point{2, 2}}, true}, // touching corner counts
		{Rect{Point{1.001, 0}, Point{2, 1}}, false},
		{Rect{Point{-1, -1}, Point{-0.5, -0.5}}, false},
		{Rect{Point{0.2, 0.2}, Point{0.3, 0.3}}, true}, // contained
	}
	for i, tc := range tests {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, tc.want)
		}
		if got := tc.b.Intersects(a); got != tc.want {
			t.Errorf("case %d: Intersects not symmetric", i)
		}
	}
}

func TestBuffer(t *testing.T) {
	r := Rect{Point{0.4, 0.4}, Point{0.6, 0.6}}
	b := r.Buffer(0.1)
	want := Rect{Point{0.3, 0.3}, Point{0.7, 0.7}}
	if !almostEq(b.Min.X, want.Min.X) || !almostEq(b.Min.Y, want.Min.Y) ||
		!almostEq(b.Max.X, want.Max.X) || !almostEq(b.Max.Y, want.Max.Y) {
		t.Fatalf("Buffer = %v, want %v", b, want)
	}
}

func TestDistPointRect(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	tests := []struct {
		p    Point
		want float64
	}{
		{Point{0.5, 0.5}, 0},      // inside
		{Point{1, 1}, 0},          // corner
		{Point{2, 1}, 1},          // right of
		{Point{0.5, -2}, 2},       // below
		{Point{2, 2}, math.Sqrt2}, // diagonal
		{Point{-3, -4}, 5},        // diagonal other side
	}
	for _, tc := range tests {
		if got := DistPointRect(tc.p, r); !almostEq(got, tc.want) {
			t.Errorf("DistPointRect(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestDistRectRect(t *testing.T) {
	a := Rect{Point{0, 0}, Point{1, 1}}
	tests := []struct {
		b    Rect
		want float64
	}{
		{Rect{Point{0.5, 0.5}, Point{2, 2}}, 0},
		{Rect{Point{2, 0}, Point{3, 1}}, 1},
		{Rect{Point{2, 2}, Point{3, 3}}, math.Sqrt2},
		{Rect{Point{-2, -3}, Point{-1, -1}}, math.Sqrt(1 + 1)},
	}
	for _, tc := range tests {
		if got := DistRectRect(a, tc.b); !almostEq(got, tc.want) {
			t.Errorf("DistRectRect(%v) = %v, want %v", tc.b, got, tc.want)
		}
		if got := DistRectRect(tc.b, a); !almostEq(got, tc.want) {
			t.Errorf("DistRectRect not symmetric for %v", tc.b)
		}
	}
}

func TestDistPointSegment(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 0}}
	tests := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 1},  // perpendicular onto interior
		{Point{-1, 0}, 1}, // beyond A
		{Point{3, 0}, 1},  // beyond B
		{Point{1, 0}, 0},  // on segment
		{Point{-3, 4}, 5}, // beyond A diagonal
	}
	for _, tc := range tests {
		if got := DistPointSegment(tc.p, s); !almostEq(got, tc.want) {
			t.Errorf("DistPointSegment(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Degenerate zero-length segment.
	z := Segment{Point{1, 1}, Point{1, 1}}
	if got := DistPointSegment(Point{4, 5}, z); !almostEq(got, 5) {
		t.Errorf("degenerate segment distance = %v, want 5", got)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		s1, s2 Segment
		want   bool
	}{
		{Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{0, 1}, Point{1, 0}}, true},  // X crossing
		{Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{1, 0}, Point{2, 0}}, true},  // shared endpoint
		{Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{0, 1}, Point{1, 1}}, false}, // parallel
		{Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{1, 0}, Point{3, 0}}, true},  // collinear overlap
		{Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{2, 0}, Point{3, 0}}, false}, // collinear disjoint
		{Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{2, 2}, Point{3, 3}}, false}, // collinear diagonal disjoint
		{Segment{Point{0, 0}, Point{0, 2}}, Segment{Point{-1, 1}, Point{1, 1}}, true}, // T junction
	}
	for i, tc := range tests {
		if got := SegmentsIntersect(tc.s1, tc.s2); got != tc.want {
			t.Errorf("case %d: intersect = %v, want %v", i, got, tc.want)
		}
		if got := SegmentsIntersect(tc.s2, tc.s1); got != tc.want {
			t.Errorf("case %d: intersect not symmetric", i)
		}
	}
}

func TestDistSegmentSegment(t *testing.T) {
	tests := []struct {
		s1, s2 Segment
		want   float64
	}{
		{Segment{Point{0, 0}, Point{1, 1}}, Segment{Point{0, 1}, Point{1, 0}}, 0},
		{Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{0, 1}, Point{1, 1}}, 1},
		{Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{2, 0}, Point{3, 0}}, 1},
		{Segment{Point{0, 0}, Point{0, 1}}, Segment{Point{3, 4}, Point{3, 5}}, 3 * math.Sqrt2 / 3 * math.Sqrt(1) * math.Hypot(3, 3) / math.Hypot(3, 3) * math.Hypot(3, 3) / math.Hypot(1, 0) / 3}, // computed below
	}
	// Fix the last expected value explicitly: closest points are (0,1) and (3,4).
	tests[3].want = math.Hypot(3, 3)
	for i, tc := range tests {
		if got := DistSegmentSegment(tc.s1, tc.s2); !almostEq(got, tc.want) {
			t.Errorf("case %d: dist = %v, want %v", i, got, tc.want)
		}
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	tests := []struct {
		s    Segment
		want bool
	}{
		{Segment{Point{0.2, 0.2}, Point{0.8, 0.8}}, true}, // inside
		{Segment{Point{-1, 0.5}, Point{2, 0.5}}, true},    // crosses through
		{Segment{Point{-1, -1}, Point{-0.5, 2}}, false},   // left of
		{Segment{Point{-1, 1}, Point{1, -1}}, true},       // touches corner region; crosses
		{Segment{Point{-1, 2}, Point{2, 2}}, false},       // above
		{Segment{Point{1, 1}, Point{2, 2}}, true},         // endpoint on corner
		{Segment{Point{-1, 1.5}, Point{1.5, -1}}, true},   // clips the corner
	}
	for i, tc := range tests {
		if got := SegmentIntersectsRect(tc.s, r); got != tc.want {
			t.Errorf("case %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func TestDistSegmentRect(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	tests := []struct {
		s    Segment
		want float64
	}{
		{Segment{Point{0.5, 0.5}, Point{0.6, 0.6}}, 0},
		{Segment{Point{2, 0}, Point{2, 1}}, 1},
		{Segment{Point{2, 2}, Point{3, 3}}, math.Sqrt2},
		{Segment{Point{-1, 2}, Point{2, 2}}, 1},
	}
	for i, tc := range tests {
		if got := DistSegmentRect(tc.s, r); !almostEq(got, tc.want) {
			t.Errorf("case %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func TestMBRPoints(t *testing.T) {
	pts := []Point{{0.5, 0.5}, {0.2, 0.8}, {0.7, 0.1}}
	got := MBRPoints(pts)
	want := Rect{Point{0.2, 0.1}, Point{0.7, 0.8}}
	if got != want {
		t.Fatalf("MBR = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("MBRPoints(nil) must panic")
		}
	}()
	MBRPoints(nil)
}

func TestNormalizeLonLatRoundTrip(t *testing.T) {
	f := func(lon, lat float64) bool {
		lon = math.Mod(lon, 180)
		lat = math.Mod(lat, 90)
		p := NormalizeLonLat(lon, lat)
		lo, la := DenormalizeLonLat(p)
		return math.Abs(lo-lon) < 1e-9 && math.Abs(la-lat) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistPointPolyline(t *testing.T) {
	poly := []Point{{0, 0}, {1, 0}, {1, 1}}
	if got := DistPointPolyline(Point{0.5, 0.5}, poly); !almostEq(got, 0.5) {
		t.Errorf("got %v, want 0.5", got)
	}
	if got := DistPointPolyline(Point{2, 1}, poly); !almostEq(got, 1) {
		t.Errorf("got %v, want 1", got)
	}
	// Single-point polyline.
	if got := DistPointPolyline(Point{3, 4}, []Point{{0, 0}}); !almostEq(got, 5) {
		t.Errorf("got %v, want 5", got)
	}
	if got := DistPointPolyline(Point{0, 0}, nil); !math.IsInf(got, 1) {
		t.Errorf("empty polyline must be at infinite distance, got %v", got)
	}
}

// Property: DistSegmentSegment is consistent with dense point sampling.
func TestDistSegmentSegmentSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		s1 := Segment{Point{rng.Float64(), rng.Float64()}, Point{rng.Float64(), rng.Float64()}}
		s2 := Segment{Point{rng.Float64(), rng.Float64()}, Point{rng.Float64(), rng.Float64()}}
		got := DistSegmentSegment(s1, s2)
		// Sampled upper bound on the true distance.
		const n = 64
		sampled := math.Inf(1)
		for i := 0; i <= n; i++ {
			f := float64(i) / n
			p := Point{s1.A.X + f*(s1.B.X-s1.A.X), s1.A.Y + f*(s1.B.Y-s1.A.Y)}
			if v := DistPointSegment(p, s2); v < sampled {
				sampled = v
			}
		}
		if got > sampled+1e-9 {
			t.Fatalf("iter %d: DistSegmentSegment=%v exceeds sampled %v", iter, got, sampled)
		}
		if sampled-got > 0.05 {
			t.Fatalf("iter %d: distance %v too far below sampled %v", iter, got, sampled)
		}
	}
}

// Property: DistPointRect equals brute-force distance to the rect edges for
// outside points, and 0 for inside points.
func TestDistPointRectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		x1, x2 := rng.Float64(), rng.Float64()
		y1, y2 := rng.Float64(), rng.Float64()
		r := Rect{Point{math.Min(x1, x2), math.Min(y1, y2)}, Point{math.Max(x1, x2), math.Max(y1, y2)}}
		p := Point{rng.Float64()*3 - 1, rng.Float64()*3 - 1}
		got := DistPointRect(p, r)
		if r.ContainsPoint(p) {
			if got != 0 {
				t.Fatalf("inside point dist = %v", got)
			}
			continue
		}
		want := math.Inf(1)
		for _, e := range r.Edges() {
			if v := DistPointSegment(p, e); v < want {
				want = v
			}
		}
		if !almostEq(got, want) {
			t.Fatalf("DistPointRect=%v brute=%v p=%v r=%v", got, want, p, r)
		}
	}
}
