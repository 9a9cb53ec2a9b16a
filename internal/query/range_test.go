package query

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
)

// bruteRange is the ground truth for a range query: a point-in-window scan
// of every stored trajectory.
func bruteRange(f *fixture, window geo.Rect) map[string]bool {
	want := map[string]bool{}
	for _, tr := range f.trajs {
		for _, p := range tr.Points {
			if window.ContainsPoint(p) {
				want[tr.ID] = true
				break
			}
		}
	}
	return want
}

// bruteNearest is the ground truth for point-kNN: the k smallest closest
// approaches to p, ascending.
func bruteNearest(f *fixture, p geo.Point, k int) []float64 {
	ds := make([]float64, 0, len(f.trajs))
	for _, tr := range f.trajs {
		best := math.Inf(1)
		for _, q := range tr.Points {
			if d := p.Dist(q); d < best {
				best = d
			}
		}
		ds = append(ds, best)
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

// Range query results must match a brute-force point-in-window scan exactly.
func TestRangeMatchesBruteForce(t *testing.T) {
	f := newFixture(t, dist.Frechet, 300, 70)
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 10; iter++ {
		cx, cy := rng.Float64(), rng.Float64()
		w := 0.001 + rng.Float64()*0.05
		window := geo.Rect{
			Min: geo.Point{X: cx, Y: cy},
			Max: geo.Point{X: geo.Clamp01(cx + w), Y: geo.Clamp01(cy + w)},
		}
		got, stats, err := f.engine.RangeContext(bg, window)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRange(f, window)
		gotIDs := map[string]bool{}
		for _, r := range got {
			gotIDs[r.ID] = true
		}
		if len(gotIDs) != len(want) {
			t.Fatalf("iter %d: got %d, want %d (stats %+v)", iter, len(gotIDs), len(want), stats)
		}
		for id := range want {
			if !gotIDs[id] {
				t.Fatalf("iter %d: missing %s", iter, id)
			}
		}
	}
}

func TestRangeEmptyWindow(t *testing.T) {
	f := newFixture(t, dist.Frechet, 50, 72)
	// A window far from every trajectory (generators keep data inside known
	// areas; the corner at (0,0) normalized is the south pole / dateline).
	got, _, err := f.engine.RangeContext(bg, geo.Rect{
		Min: geo.Point{X: 0, Y: 0},
		Max: geo.Point{X: 0.001, Y: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected no results, got %d", len(got))
	}
}

// Range query prunes: a small window must not scan the whole store.
func TestRangePrunes(t *testing.T) {
	f := newFixture(t, dist.Frechet, 400, 73)
	mbr := f.trajs[0].MBR()
	_, stats, err := f.engine.RangeContext(bg, mbr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsScanned >= f.store.Count() {
		t.Fatalf("range scanned everything: %d of %d", stats.RowsScanned, f.store.Count())
	}
}

// Every ablation variant returns identical threshold results; the disabled
// stages only affect how much is scanned and shipped.
func TestTuningVariantsAgree(t *testing.T) {
	f := newFixture(t, dist.Frechet, 250, 74)
	rng := rand.New(rand.NewSource(75))
	q := nearWalk(rng, f.trajs[10], "q", 0.002)
	eps := 0.01 / 360 * 10

	full, fullStats, err := f.engine.ThresholdContext(bg, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Tuning{
		{DisablePosCodes: true},
		{EndpointOnlyFilter: true},
		{DisableLocalFilter: true},
		{DisablePosCodes: true, DisableLocalFilter: true},
	}
	for i, tuning := range variants {
		f.engine.SetTuning(tuning)
		got, stats, err := f.engine.ThresholdContext(bg, q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(full) {
			t.Fatalf("variant %d: %d results, full gave %d", i, len(got), len(full))
		}
		// Looser pruning can only scan and retrieve more.
		if stats.RowsScanned < fullStats.RowsScanned {
			t.Fatalf("variant %d scanned fewer rows (%d) than full TraSS (%d)",
				i, stats.RowsScanned, fullStats.RowsScanned)
		}
		if stats.Retrieved < fullStats.Retrieved {
			t.Fatalf("variant %d retrieved fewer rows (%d) than full TraSS (%d)",
				i, stats.Retrieved, fullStats.Retrieved)
		}
	}
	f.engine.SetTuning(Tuning{})
}

// A tiny global-pruning budget truncates plans to subtree ranges but keeps
// results exact.
func TestTinyBudgetStaysExact(t *testing.T) {
	f := newFixture(t, dist.Frechet, 250, 76)
	rng := rand.New(rand.NewSource(77))
	q := nearWalk(rng, f.trajs[20], "q", 0.002)
	eps := 0.02 / 360 * 10

	full, _, err := f.engine.ThresholdContext(bg, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.budget = 4
	small, stats, err := f.engine.ThresholdContext(bg, q, eps)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.budget = 0
	if len(small) != len(full) {
		t.Fatalf("budget 4: %d results, full plan gave %d", len(small), len(full))
	}
	if stats.RowsScanned == 0 && len(full) > 0 {
		t.Fatal("suspicious: results without scanning")
	}
}

// Point-kNN (closest approach) must match brute force exactly.
func TestNearestToPointMatchesBruteForce(t *testing.T) {
	f := newFixture(t, dist.Frechet, 300, 78)
	rng := rand.New(rand.NewSource(79))
	for iter := 0; iter < 8; iter++ {
		var p geo.Point
		if iter%2 == 0 {
			tr := f.trajs[rng.Intn(len(f.trajs))]
			p = tr.Points[rng.Intn(len(tr.Points))]
		} else {
			p = geo.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		k := []int{1, 5, 25}[iter%3]
		got, stats, err := f.engine.Search(bg, Query{Kind: KindNearest, Point: p, K: k}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ds := bruteNearest(f, p, len(f.trajs))
		if len(got) != k {
			t.Fatalf("iter %d: got %d results, want %d (stats %+v)", iter, len(got), k, stats)
		}
		for i := range got {
			if math.Abs(got[i].Distance-ds[i]) > 1e-6 {
				t.Fatalf("iter %d rank %d: %v want %v", iter, i, got[i].Distance, ds[i])
			}
		}
	}
}

func TestNearestToPointEdgeCases(t *testing.T) {
	f := newFixture(t, dist.Frechet, 20, 80)
	if got, _, err := f.engine.Search(bg, Query{Kind: KindNearest, Point: geo.Point{X: 0.5, Y: 0.5}, K: 0}, nil); err != nil || len(got) != 0 {
		t.Fatalf("k=0: %v %v", got, err)
	}
	got, _, err := f.engine.Search(bg, Query{Kind: KindNearest, Point: geo.Point{X: 0.5, Y: 0.5}, K: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(f.trajs) {
		t.Fatalf("k>n returned %d of %d", len(got), len(f.trajs))
	}
}
