package dist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func pts(coords ...float64) []geo.Point {
	if len(coords)%2 != 0 {
		panic("odd coords")
	}
	out := make([]geo.Point, len(coords)/2)
	for i := range out {
		out[i] = geo.Point{X: coords[2*i], Y: coords[2*i+1]}
	}
	return out
}

func randomWalk(rng *rand.Rand, n int) []geo.Point {
	out := make([]geo.Point, n)
	x, y := rng.Float64(), rng.Float64()
	for i := range out {
		out[i] = geo.Point{X: x, Y: y}
		x += (rng.Float64() - 0.5) * 0.05
		y += (rng.Float64() - 0.5) * 0.05
	}
	return out
}

// frechetRecursive is the textbook exponential-memoized definition used as a
// reference implementation.
func frechetRecursive(q, t []geo.Point) float64 {
	n, m := len(q), len(t)
	memo := make([]float64, n*m)
	for i := range memo {
		memo[i] = -1
	}
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if v := memo[i*m+j]; v >= 0 {
			return v
		}
		d := q[i].Dist(t[j])
		var v float64
		switch {
		case i == 0 && j == 0:
			v = d
		case i == 0:
			v = math.Max(rec(0, j-1), d)
		case j == 0:
			v = math.Max(rec(i-1, 0), d)
		default:
			v = math.Max(math.Min(rec(i-1, j), math.Min(rec(i, j-1), rec(i-1, j-1))), d)
		}
		memo[i*m+j] = v
		return v
	}
	return rec(n-1, m-1)
}

func dtwRecursive(q, t []geo.Point) float64 {
	n, m := len(q), len(t)
	memo := make([]float64, n*m)
	for i := range memo {
		memo[i] = -1
	}
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if v := memo[i*m+j]; v >= 0 {
			return v
		}
		d := q[i].Dist(t[j])
		var v float64
		switch {
		case i == 0 && j == 0:
			v = d
		case i == 0:
			v = rec(0, j-1) + d
		case j == 0:
			v = rec(i-1, 0) + d
		default:
			v = math.Min(rec(i-1, j), math.Min(rec(i, j-1), rec(i-1, j-1))) + d
		}
		memo[i*m+j] = v
		return v
	}
	return rec(n-1, m-1)
}

func TestDiscreteFrechetKnownValues(t *testing.T) {
	// Identical trajectories: distance 0.
	a := pts(0, 0, 1, 0, 2, 0)
	if got := DiscreteFrechet(a, a); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	// Parallel lines offset by 1.
	b := pts(0, 1, 1, 1, 2, 1)
	if got := DiscreteFrechet(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("parallel lines = %v, want 1", got)
	}
	// Single point vs sequence: max distance to the point.
	c := pts(0, 0)
	d := pts(0, 0, 3, 4)
	if got := DiscreteFrechet(c, d); math.Abs(got-5) > 1e-12 {
		t.Errorf("point vs line = %v, want 5", got)
	}
	if got := DiscreteFrechet(d, c); math.Abs(got-5) > 1e-12 {
		t.Errorf("asymmetric call = %v, want 5", got)
	}
}

func TestDiscreteFrechetVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for iter := 0; iter < 50; iter++ {
		q := randomWalk(rng, 2+rng.Intn(30))
		tr := randomWalk(rng, 2+rng.Intn(30))
		got := DiscreteFrechet(q, tr)
		want := frechetRecursive(q, tr)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("iter %d: DP=%v reference=%v", iter, got, want)
		}
	}
}

func TestFrechetWithinMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		q := randomWalk(rng, 2+rng.Intn(25))
		tr := randomWalk(rng, 2+rng.Intn(25))
		full := DiscreteFrechet(q, tr)
		for _, eps := range []float64{full * 0.5, full, full * 1.5, 0.01, 0.2} {
			got := FrechetWithin(q, tr, eps)
			want := full <= eps
			if got != want {
				t.Fatalf("iter %d eps=%v: within=%v, full=%v", iter, eps, got, full)
			}
		}
	}
}

func TestHausdorffKnownValues(t *testing.T) {
	a := pts(0, 0, 1, 0)
	b := pts(0, 1, 1, 1)
	if got := HausdorffDist(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("got %v, want 1", got)
	}
	// Asymmetric support: directed distances differ, symmetric takes max.
	c := pts(0, 0)
	d := pts(0, 0, 0, 5)
	if got := HausdorffDist(c, d); math.Abs(got-5) > 1e-12 {
		t.Errorf("got %v, want 5", got)
	}
	if got := HausdorffDist(a, a); got != 0 {
		t.Errorf("self = %v", got)
	}
}

func TestHausdorffSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 50; iter++ {
		q := randomWalk(rng, 1+rng.Intn(40))
		tr := randomWalk(rng, 1+rng.Intn(40))
		if d1, d2 := HausdorffDist(q, tr), HausdorffDist(tr, q); math.Abs(d1-d2) > 1e-12 {
			t.Fatalf("not symmetric: %v vs %v", d1, d2)
		}
	}
}

func TestHausdorffWithinMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 200; iter++ {
		q := randomWalk(rng, 1+rng.Intn(25))
		tr := randomWalk(rng, 1+rng.Intn(25))
		full := HausdorffDist(q, tr)
		for _, eps := range []float64{full * 0.5, full, full * 2, 0.05} {
			if got, want := HausdorffWithin(q, tr, eps), full <= eps; got != want {
				t.Fatalf("iter %d eps=%v: within=%v, full=%v", iter, eps, got, full)
			}
		}
	}
}

func TestDTWKnownValues(t *testing.T) {
	a := pts(0, 0, 1, 0, 2, 0)
	if got := DTWDist(a, a); got != 0 {
		t.Errorf("self = %v", got)
	}
	// Each of the 3 points matches its offset twin: total 3.
	b := pts(0, 1, 1, 1, 2, 1)
	if got := DTWDist(a, b); math.Abs(got-3) > 1e-12 {
		t.Errorf("got %v, want 3", got)
	}
}

func TestDTWVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 50; iter++ {
		q := randomWalk(rng, 2+rng.Intn(30))
		tr := randomWalk(rng, 2+rng.Intn(30))
		got := DTWDist(q, tr)
		want := dtwRecursive(q, tr)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: DP=%v reference=%v", iter, got, want)
		}
	}
}

func TestDTWWithinMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 200; iter++ {
		q := randomWalk(rng, 2+rng.Intn(25))
		tr := randomWalk(rng, 2+rng.Intn(25))
		full := DTWDist(q, tr)
		for _, eps := range []float64{full * 0.5, full, full * 1.5} {
			if got, want := DTWWithin(q, tr, eps), full <= eps; got != want {
				t.Fatalf("iter %d eps=%v: within=%v, full=%v", iter, eps, got, full)
			}
		}
	}
}

// Frechet >= Hausdorff always (the coupling constraint can only increase it).
func TestFrechetDominatesHausdorff(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for iter := 0; iter < 100; iter++ {
		q := randomWalk(rng, 2+rng.Intn(30))
		tr := randomWalk(rng, 2+rng.Intn(30))
		f := DiscreteFrechet(q, tr)
		h := HausdorffDist(q, tr)
		if f < h-1e-12 {
			t.Fatalf("Frechet %v < Hausdorff %v", f, h)
		}
	}
}

// Lemma 5 from the paper: any single point's distance to the other trajectory
// lower-bounds the Fréchet distance.
func TestLemma5PointLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 100; iter++ {
		q := randomWalk(rng, 2+rng.Intn(20))
		tr := randomWalk(rng, 2+rng.Intn(20))
		f := DiscreteFrechet(q, tr)
		for _, p := range q {
			best := math.Inf(1)
			for _, r := range tr {
				if d := p.Dist(r); d < best {
					best = d
				}
			}
			if best > f+1e-12 {
				t.Fatalf("point lower bound %v exceeds Frechet %v", best, f)
			}
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	a := pts(0, 0)
	if !math.IsInf(DiscreteFrechet(nil, a), 1) || !math.IsInf(DTWDist(a, nil), 1) {
		t.Error("empty inputs must give +inf")
	}
	if FrechetWithin(nil, a, 10) || HausdorffWithin(a, nil, 10) || DTWWithin(nil, nil, 10) {
		t.Error("empty inputs must not be within any threshold")
	}
}

func TestMeasurePlumbing(t *testing.T) {
	for _, m := range []Measure{Frechet, Hausdorff, DTW} {
		if For(m) == nil || WithinFor(m) == nil {
			t.Fatalf("nil func for %v", m)
		}
		if m.String() == "unknown" {
			t.Fatalf("bad name for %v", m)
		}
	}
	if SupportsEndpointLemma(Hausdorff) {
		t.Error("Hausdorff must not support the endpoint lemma")
	}
	if !SupportsEndpointLemma(Frechet) || !SupportsEndpointLemma(DTW) {
		t.Error("Frechet and DTW must support the endpoint lemma")
	}
	if Measure(99).String() != "unknown" {
		t.Error("unknown measure name")
	}
	defer func() {
		if recover() == nil {
			t.Error("For(unknown) must panic")
		}
	}()
	For(Measure(99))
}

func BenchmarkDiscreteFrechet200(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	q := randomWalk(rng, 200)
	tr := randomWalk(rng, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiscreteFrechet(q, tr)
	}
}

func BenchmarkFrechetWithinReject(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	q := randomWalk(rng, 200)
	tr := randomWalk(rng, 200)
	// Move tr far away so the decision version rejects instantly.
	for i := range tr {
		tr[i].X += 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FrechetWithin(q, tr, 0.01) {
			b.Fatal("must reject")
		}
	}
}

// fuzzPoints reads a point sequence off a byte string, two bytes a point, on
// a 256 x 256 grid: coarse enough that repeated points, zero distances and
// exact ties between cells of the DP are common.
func fuzzPoints(data []byte) []geo.Point {
	pts := make([]geo.Point, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		pts = append(pts, geo.Point{X: float64(data[i]) / 255, Y: float64(data[i+1]) / 255})
	}
	return pts
}

// FuzzBoundedKernel holds every measure's bounded kernel to its contract
// against the full one: ok exactly when the full distance is at most the
// bound, and then the same bits — at the exact distance, one ulp either side
// of it, 0, +Inf and a fuzzed fraction of it, on empty inputs too, with one
// scratch row carried dirty from call to call.
func FuzzBoundedKernel(f *testing.F) {
	f.Add([]byte{10, 10, 20, 20, 30, 10, 12, 11, 22, 19, 33, 12}, uint8(3), 0.5)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(2), 1.0) // all-identical points
	f.Add([]byte{5, 5, 200, 200}, uint8(1), 0.99)        // single point each side
	f.Add([]byte{5, 5, 6, 6}, uint8(0), 2.0)             // empty q
	f.Add([]byte{5, 5, 6, 6}, uint8(2), 0.0)             // empty t
	f.Add([]byte{}, uint8(0), 1.5)                       // both empty
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 250, 1, 3, 250}, uint8(5), 1.0000001)
	f.Fuzz(func(t *testing.T, data []byte, nq uint8, frac float64) {
		if len(data) > 400 {
			data = data[:400] // O(n·m) per bound; keep an execution cheap
		}
		pts := fuzzPoints(data)
		split := min(int(nq), len(pts))
		q, tr := pts[:split], pts[split:]
		if math.IsNaN(frac) || frac < 0 {
			frac = 0
		}
		var row []float64
		for _, m := range []Measure{Frechet, Hausdorff, DTW} {
			full := For(m)(q, tr)
			kernel := BoundedFor(m)
			for _, bound := range []float64{full, math.Nextafter(full, math.Inf(-1)), math.Nextafter(full, math.Inf(1)), 0, math.Inf(1), full * frac} {
				if bound < 0 || math.IsNaN(bound) {
					continue
				}
				var d float64
				var ok bool
				d, ok, row = kernel(q, tr, bound, row)
				if want := full <= bound; ok != want {
					t.Fatalf("%v bound=%v: ok=%v, full distance %v", m, bound, ok, full)
				}
				if ok && math.Float64bits(d) != math.Float64bits(full) {
					t.Fatalf("%v bound=%v: bounded kernel returned %v, full kernel %v", m, bound, d, full)
				}
			}
		}
	})
}
