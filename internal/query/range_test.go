package query

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
)

// Range query results must equal the oracle's point-in-window scan.
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
		f.search(t, Query{Kind: KindRange, Rect: window})
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

	qry := Query{Kind: KindThreshold, Traj: q, Eps: eps}
	_, fullStats := f.search(t, qry)
	variants := []Tuning{
		{DisablePosCodes: true},
		{EndpointOnlyFilter: true},
		{DisableLocalFilter: true},
		{DisablePosCodes: true, DisableLocalFilter: true},
	}
	for i, tuning := range variants {
		f.engine.SetTuning(tuning)
		_, stats := f.search(t, qry)
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

	f.engine.budget = 4
	small, stats := f.search(t, Query{Kind: KindThreshold, Traj: q, Eps: eps})
	f.engine.budget = 0
	if stats.RowsScanned == 0 && len(small) > 0 {
		t.Fatal("suspicious: results without scanning")
	}
}

// Point-kNN (closest approach) must equal the oracle's answer.
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
		f.search(t, Query{Kind: KindNearest, Point: p, K: k})
	}
}

func TestNearestToPointEdgeCases(t *testing.T) {
	f := newFixture(t, dist.Frechet, 20, 80)
	if got, _, err := f.engine.Search(bg, Query{Kind: KindNearest, Point: geo.Point{X: 0.5, Y: 0.5}, K: 0}, nil); err != nil || len(got) != 0 {
		t.Fatalf("k=0: %v %v", got, err)
	}
	if got, _ := f.search(t, Query{Kind: KindNearest, Point: geo.Point{X: 0.5, Y: 0.5}, K: 1000}); len(got) != len(f.trajs) {
		t.Fatalf("k>n returned %d of %d", len(got), len(f.trajs))
	}
}
