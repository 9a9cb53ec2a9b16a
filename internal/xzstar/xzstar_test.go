package xzstar

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("resolution 0 must be rejected")
	}
	if _, err := New(MaxResolutionLimit + 1); err == nil {
		t.Error("resolution above the limit must be rejected")
	}
	ix, err := New(16)
	if err != nil || ix.MaxResolution() != 16 {
		t.Fatalf("New(16): %v %v", ix, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad resolution must panic")
		}
	}()
	MustNew(0)
}

func TestSeqBasics(t *testing.T) {
	s := SeqOf(0, 3)
	if s.Len() != 2 || s.String() != "03" {
		t.Fatalf("seq = %v len %d", s, s.Len())
	}
	c := s.Child(2)
	if c.String() != "032" || s.String() != "03" {
		t.Fatalf("Child mutated parent: %v %v", c, s)
	}
	if (Seq{}).String() != "root" {
		t.Error("zero seq must render as root")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad digit must panic")
		}
	}()
	SeqOf(4)
}

func TestCellGeometry(t *testing.T) {
	// Digit convention: 0=SW, 1=SE, 2=NW, 3=NE.
	tests := []struct {
		s    Seq
		want geo.Rect
	}{
		{SeqOf(0), geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 0.5, Y: 0.5}}},
		{SeqOf(1), geo.Rect{Min: geo.Point{X: 0.5, Y: 0}, Max: geo.Point{X: 1, Y: 0.5}}},
		{SeqOf(2), geo.Rect{Min: geo.Point{X: 0, Y: 0.5}, Max: geo.Point{X: 0.5, Y: 1}}},
		{SeqOf(3), geo.Rect{Min: geo.Point{X: 0.5, Y: 0.5}, Max: geo.Point{X: 1, Y: 1}}},
		{SeqOf(0, 3), geo.Rect{Min: geo.Point{X: 0.25, Y: 0.25}, Max: geo.Point{X: 0.5, Y: 0.5}}},
		{SeqOf(3, 0), geo.Rect{Min: geo.Point{X: 0.5, Y: 0.5}, Max: geo.Point{X: 0.75, Y: 0.75}}},
	}
	for _, tc := range tests {
		if got := tc.s.Cell(); got != tc.want {
			t.Errorf("Cell(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestElementDoubles(t *testing.T) {
	s := SeqOf(0, 3)
	e := s.Element()
	want := geo.Rect{Min: geo.Point{X: 0.25, Y: 0.25}, Max: geo.Point{X: 0.75, Y: 0.75}}
	if e != want {
		t.Fatalf("Element = %v, want %v", e, want)
	}
	q := s.Quads()
	if q[0] != s.Cell() {
		t.Errorf("quad a must be the base cell: %v vs %v", q[0], s.Cell())
	}
	// b east of a, c north of a, d northeast.
	if q[1].Min != (geo.Point{X: 0.5, Y: 0.25}) || q[2].Min != (geo.Point{X: 0.25, Y: 0.5}) || q[3].Min != (geo.Point{X: 0.5, Y: 0.5}) {
		t.Errorf("quads misplaced: %v", q)
	}
	// Quads tile the element.
	area := q[0].Area() + q[1].Area() + q[2].Area() + q[3].Area()
	if math.Abs(area-e.Area()) > 1e-12 {
		t.Errorf("quads do not tile the element: %v vs %v", area, e.Area())
	}
}

func TestSeqForPoint(t *testing.T) {
	if got := seqForPoint(geo.Point{X: 0.1, Y: 0.1}, 2); got.String() != "00" {
		t.Errorf("got %v", got)
	}
	if got := seqForPoint(geo.Point{X: 0.9, Y: 0.9}, 1); got.String() != "3" {
		t.Errorf("got %v", got)
	}
	// Exactly 1.0 clamps into the last cell rather than falling outside.
	if got := seqForPoint(geo.Point{X: 1, Y: 1}, 3); got.String() != "333" {
		t.Errorf("clamped corner: got %v", got)
	}
	if got := seqForPoint(geo.Point{X: -0.5, Y: 0.2}, 1); got.String() != "0" {
		t.Errorf("negative clamp: got %v", got)
	}
}

func TestSEECoversAndIsSmallest(t *testing.T) {
	ix := MustNew(16)
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		x := rng.Float64()
		y := rng.Float64()
		w := math.Pow(2, -rng.Float64()*16) * rng.Float64()
		h := math.Pow(2, -rng.Float64()*16) * rng.Float64()
		mbr := clampRect(geo.Rect{Min: geo.Point{X: x, Y: y}, Max: geo.Point{X: x + w, Y: y + h}})
		s := ix.SEE(mbr)
		if s.Len() < 1 || s.Len() > 16 {
			t.Fatalf("SEE length %d out of range", s.Len())
		}
		if !s.Element().ContainsRect(mbr) {
			t.Fatalf("iter %d: element %v of %v does not cover %v", iter, s.Element(), s, mbr)
		}
		// Smallest: one level deeper must not fit (unless already at max).
		if s.Len() < 16 && fits(mbr, s.Len()+1) {
			t.Fatalf("iter %d: %v is not the smallest covering element for %v", iter, s, mbr)
		}
		// Anchored at the cell of the lower-left corner.
		if !s.Cell().ContainsPoint(geo.Point{X: clampCoord(mbr.Min.X), Y: clampCoord(mbr.Min.Y)}) {
			t.Fatalf("iter %d: cell not anchored at lower-left corner", iter)
		}
	}
}

func TestSEEPointMBR(t *testing.T) {
	ix := MustNew(16)
	// A degenerate (point) MBR always lands at the maximum resolution.
	mbr := geo.Rect{Min: geo.Point{X: 0.3, Y: 0.7}, Max: geo.Point{X: 0.3, Y: 0.7}}
	if s := ix.SEE(mbr); s.Len() != 16 {
		t.Fatalf("point MBR at resolution %d, want 16", s.Len())
	}
}

func TestSEEPaperExample(t *testing.T) {
	// Figure 1(b): a trajectory confined to the SW quadrant's SW cell region
	// gets sequence prefix "00"-style small sequences; sanity-check a couple
	// of hand cases at low resolution.
	ix := MustNew(2)
	mbr := geo.Rect{Min: geo.Point{X: 0.05, Y: 0.05}, Max: geo.Point{X: 0.2, Y: 0.2}}
	s := ix.SEE(mbr)
	if s.String() != "00" {
		t.Fatalf("SEE = %v, want 00", s)
	}
	// An MBR spanning nearly everything stays at resolution 1.
	big := geo.Rect{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.9, Y: 0.9}}
	if s := ix.SEE(big); s.Len() != 1 {
		t.Fatalf("big MBR at resolution %d, want 1", s.Len())
	}
}

func mustPoints(rng *rand.Rand, n int, box geo.Rect) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			X: box.Min.X + rng.Float64()*box.Width(),
			Y: box.Min.Y + rng.Float64()*box.Height(),
		}
	}
	return pts
}

// A trajectory anchored on the plane's far edge (a coordinate of exactly 1,
// which the plane admits) is assigned like any other: its cell is clamped
// inward, and so are its points, so the lower-left point lies in quad a and
// every quad of the code holds a point. Unclamped points fell outside quad a
// and Assign panicked.
func TestAssignOnFarEdge(t *testing.T) {
	ix := MustNew(16)
	for _, pts := range [][]geo.Point{
		{{X: 1, Y: 1}},
		{{X: 1, Y: 0.4}, {X: 1, Y: 0.41}},
		{{X: 0.3, Y: 1}, {X: 0.31, Y: 1}},
		{{X: 1 - 1.0/(1<<16), Y: 0.5}, {X: 1, Y: 0.5}},
	} {
		e := ix.Assign(pts)
		quads := e.Seq.Quads()
		for i := 0; i < 4; i++ {
			if e.Code.Mask()&(1<<i) != 0 && !slices.ContainsFunc(pts, quads[i].ContainsPoint) {
				t.Errorf("%v: quad %d in code %d of %v holds no point", pts, i, e.Code, e.Seq)
			}
		}
	}
}

func TestAssignInvariants(t *testing.T) {
	ix := MustNew(16)
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		cx, cy := rng.Float64(), rng.Float64()
		ext := math.Pow(2, -rng.Float64()*18)
		box := clampRect(geo.Rect{
			Min: geo.Point{X: cx - ext/2, Y: cy - ext/2},
			Max: geo.Point{X: cx + ext/2, Y: cy + ext/2},
		})
		if box.Width() <= 0 || box.Height() <= 0 {
			continue
		}
		pts := mustPoints(rng, 2+rng.Intn(20), box)
		e := ix.Assign(pts)

		// The element covers the trajectory.
		elem := e.Seq.Element()
		for _, p := range pts {
			if !elem.ContainsPoint(p) {
				t.Fatalf("iter %d: point %v outside element %v", iter, p, elem)
			}
		}
		// Every quad in the code's mask holds at least one point (the property
		// Lemma 10 relies on).
		quads := e.Seq.Quads()
		for i := 0; i < 4; i++ {
			if e.Code.Mask()&(1<<i) == 0 {
				continue
			}
			found := false
			for _, p := range pts {
				if quads[i].ContainsPoint(p) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("iter %d: quad %d in code %d has no point", iter, i, e.Code)
			}
		}
		// Code 10 only at max resolution.
		if e.Code == CodeA && e.Seq.Len() != 16 {
			t.Fatalf("iter %d: code 10 at resolution %d", iter, e.Seq.Len())
		}
		// The value round-trips.
		s2, p2, err := ix.Decode(e.Value)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if s2.String() != e.Seq.String() || p2 != e.Code {
			t.Fatalf("iter %d: decode(%d) = (%v,%d), want (%v,%d)", iter, e.Value, s2, p2, e.Seq, e.Code)
		}
	}
}

func TestAssignSinglePoint(t *testing.T) {
	ix := MustNew(16)
	e := ix.Assign([]geo.Point{{X: 0.25, Y: 0.25}})
	if e.Seq.Len() != 16 {
		t.Fatalf("single point at resolution %d", e.Seq.Len())
	}
	if e.Code != CodeA {
		t.Fatalf("single point code %d, want 10", e.Code)
	}
}

func TestQuadOfBoundaries(t *testing.T) {
	origin := geo.Point{X: 0, Y: 0}
	w := 0.5
	tests := []struct {
		p    geo.Point
		want QuadMask
	}{
		{geo.Point{X: 0.25, Y: 0.25}, QuadA},
		{geo.Point{X: 0.75, Y: 0.25}, QuadB},
		{geo.Point{X: 0.25, Y: 0.75}, QuadC},
		{geo.Point{X: 0.75, Y: 0.75}, QuadD},
		{geo.Point{X: 0.5, Y: 0.25}, QuadB}, // on the inner vertical boundary
		{geo.Point{X: 0.25, Y: 0.5}, QuadC}, // on the inner horizontal boundary
		{geo.Point{X: 0.5, Y: 0.5}, QuadD},  // center
		{geo.Point{X: 1.0, Y: 1.0}, QuadD},  // far corner of the element
	}
	for _, tc := range tests {
		if got := quadOf(tc.p, origin, w); got != tc.want {
			t.Errorf("quadOf(%v) = %04b, want %04b", tc.p, got, tc.want)
		}
	}
}
