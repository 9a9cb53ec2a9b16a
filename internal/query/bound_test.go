package query

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/traj"
)

// refLocalFilter is Lemmas 12-14 written as the yes/no decision Algorithm 2
// states over a decoded record — each check compared against eps on its own,
// no shared running maximum, no particular order — and is the reference
// localBound is held to.
func refLocalFilter(qg *queryGeom, measure dist.Measure, rec *traj.Record, eps float64) bool {
	qpts, tpts := qg.points, rec.Points
	if len(tpts) == 0 {
		return false
	}
	if math.IsInf(eps, 1) {
		return true
	}
	if dist.SupportsEndpointLemma(measure) {
		if qpts[0].Dist(tpts[0]) > eps || qpts[len(qpts)-1].Dist(tpts[len(tpts)-1]) > eps {
			return false
		}
	}
	pointsNear := func(pts []geo.Point, boxes []geo.Rect, fallback []geo.Point) bool {
		for _, p := range pts {
			d := traj.DistPointBoxes(p, boxes)
			if len(boxes) == 0 {
				d = distToPoints(p, fallback)
			}
			if d > eps {
				return false
			}
		}
		return true
	}
	boxesNear := func(a, b []geo.Rect, bFallback []geo.Point) bool {
		for _, box := range a {
			worst := 0.0
			for _, edge := range box.Edges() {
				d := traj.DistSegmentBoxes(geo.Segment(edge), b)
				if len(b) == 0 {
					d = distSegToPoints(geo.Segment(edge), bFallback)
				}
				worst = math.Max(worst, d)
			}
			if worst > eps {
				return false
			}
		}
		return true
	}
	trep := rec.Features.RepPoints(&traj.Trajectory{Points: tpts})
	return pointsNear(qg.rep, rec.Features.Boxes, tpts) &&
		pointsNear(trep, qg.features.Boxes, qpts) &&
		boxesNear(qg.features.Boxes, rec.Features.Boxes, tpts) &&
		boxesNear(rec.Features.Boxes, qg.features.Boxes, qpts)
}

// boundShapes is T-Drive and Lorry trajectories plus the degenerate shapes a
// feature-based bound has special cases for.
func boundShapes() []*traj.Trajectory {
	shapes := gen.TDrive(gen.TDriveOptions{Seed: 7, N: 14})
	shapes = append(shapes, gen.Lorry(gen.LorryOptions{Seed: 7, N: 10})...)
	same := make([]geo.Point, 6)
	for i := range same {
		same[i] = geo.Point{X: 0.3, Y: 0.7}
	}
	return append(shapes,
		traj.New("single", []geo.Point{{X: 0.322, Y: 0.611}}),                // no feature boxes
		traj.New("single-far", []geo.Point{{X: 0.9, Y: 0.1}}),                // no feature boxes
		traj.New("identical", same),                                          // zero-area boxes
		traj.New("pair", []geo.Point{{X: 0.32, Y: 0.61}, {X: 0.33, Y: 0.6}}), // one box
	)
}

// localBound over the stored bytes is a lower bound on the exact distance, its
// coupling bound an upper bound, and deciding with it is deciding with the lemmas one by one over the decoded
// record: for every pair of shapes, every measure, and thresholds below, at
// and above the bound. Passing at lb and failing one ulp below it pins lb to
// the reference's largest term bit for bit.
func TestLocalBoundIsLowerBoundAndMatchesFilter(t *testing.T) {
	const theta = 0.01 / 360 // fine enough that a city trip keeps several feature boxes
	shapes := boundShapes()
	geoms := make([]*queryGeom, len(shapes))
	recs := make([]*traj.Record, len(shapes))
	views := make([]traj.RecordView, len(shapes))
	for i, s := range shapes {
		f := traj.ComputeFeatures(s, theta)
		geoms[i] = &queryGeom{points: s.Points, features: f, rep: f.RepPoints(s)}
		value := traj.EncodeRecord(&traj.Record{ID: s.ID, Points: s.Points, Features: f})
		var err error
		if recs[i], err = traj.DecodeRecord(value); err != nil {
			t.Fatal(err)
		}
		if views[i], err = traj.ViewRecord(value); err != nil {
			t.Fatal(err)
		}
	}
	scratch := new(filterScratch)
	for _, measure := range []dist.Measure{dist.Frechet, dist.Hausdorff, dist.DTW} {
		exact := dist.For(measure)
		for qi, qg := range geoms {
			for ti, rec := range recs {
				name := fmt.Sprintf("%v %s vs %s", measure, shapes[qi].ID, shapes[ti].ID)
				lb, ub, ok := localBound(qg, measure, views[ti], scratch, math.Inf(1), true)
				if !ok {
					t.Fatalf("%s: abandoned at cutoff +Inf", name)
				}
				if d := exact(qg.points, rec.Points); lb > d || ub < d {
					t.Fatalf("%s: bounds [%v, %v] miss the exact distance %v", name, lb, ub, d)
				}
				for _, eps := range []float64{0, lb / 2, math.Nextafter(lb, 0), lb, math.Nextafter(lb, 1), 2*lb + 1e-9, math.Inf(1)} {
					if eps < 0 {
						continue // Nextafter(0, 0) side of a zero bound
					}
					got, _, ok := localBound(qg, measure, views[ti], scratch, eps, false)
					if want := refLocalFilter(qg, measure, rec, eps); ok != want || ok != (lb <= eps) {
						t.Fatalf("%s eps=%v: localBound ok=%v, the lemmas one by one say %v, lb=%v", name, eps, ok, want, lb)
					}
					if ok && got != lb {
						t.Fatalf("%s eps=%v: bound %v differs from the unabandoned %v", name, eps, got, lb)
					}
					if !ok && !(got > eps) {
						t.Fatalf("%s eps=%v: abandoned with partial bound %v, which proves nothing", name, eps, got)
					}
				}
			}
		}
	}
	// A record with no points is never within anything.
	empty, err := traj.ViewRecord(traj.EncodeRecord(&traj.Record{Features: &traj.Features{}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := localBound(geoms[0], dist.Frechet, empty, scratch, math.Inf(1), true); ok {
		t.Fatal("an empty record passed the filter")
	}
}
