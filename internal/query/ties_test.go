package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/oracle"
	"repro/internal/store"
	"repro/internal/traj"
)

// tieDupIDs names the exact duplicates in an order unrelated to their id
// order, so neither insertion order nor shard order can stand in for it.
var tieDupIDs = []string{"dup-f", "dup-b", "dup-h", "dup-a", "dup-e", "dup-c", "dup-g", "dup-d"}

// tieEngines loads trajs into a 1-shard and an 8-shard store, keyed by shard
// count.
func tieEngines(t *testing.T, measure dist.Measure, trajs []*traj.Trajectory) map[int]*Engine {
	t.Helper()
	out := map[int]*Engine{}
	for _, shards := range []int{1, 8} {
		st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		for _, tr := range trajs {
			if err := st.Put(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		out[shards] = New(st, measure)
	}
	return out
}

// When the kth position falls inside a group of exact duplicates, the answer
// is still a function of the stored set alone: the oracle's, ranked by
// (distance, id), whatever the worker count, shard count or run.
func TestRefineTiesStraddlingK(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var background []*traj.Trajectory
	for i := 0; i < 120; i++ {
		background = append(background, walk(rng, fmt.Sprintf("t%03d", i), 5+rng.Intn(30), 0.01))
	}
	withDups := func(pts []geo.Point, extra ...*traj.Trajectory) []*traj.Trajectory {
		out := append(append([]*traj.Trajectory(nil), background...), extra...)
		for _, id := range tieDupIDs {
			out = append(out, traj.New(id, pts))
		}
		return out
	}

	// Top-k: the duplicates of one walk, a query jittered off it, and three
	// trajectories nearer to the query than the duplicates are.
	dup := walk(rng, "", 20, 0.01)
	q := nearWalk(rng, dup, "q", 0.002)
	var nearer []*traj.Trajectory
	for i := 0; i < 3; i++ {
		nearer = append(nearer, nearWalk(rng, q, fmt.Sprintf("near-%d", i), 0.0002))
	}
	topkTrajs := withDups(dup.Points, nearer...)

	// Nearest: duplicates 0.1 from p, and one trajectory nearer than that.
	p := geo.Point{X: 0.5, Y: 0.5}
	nearestTrajs := withDups([]geo.Point{{X: 0.5, Y: 0.6}, {X: 0.52, Y: 0.6}},
		traj.New("near-0", []geo.Point{{X: 0.5, Y: 0.55}, {X: 0.52, Y: 0.55}}))

	for _, tc := range []struct {
		name    string
		measure dist.Measure
		trajs   []*traj.Trajectory
		query   Query
	}{
		{"topk-frechet", dist.Frechet, topkTrajs, Query{Kind: KindTopK, Traj: q}},
		{"topk-dtw", dist.DTW, topkTrajs, Query{Kind: KindTopK, Traj: q}},
		{"nearest", dist.Frechet, nearestTrajs, Query{Kind: KindNearest, Point: p}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			data := oracle.Stored(tc.trajs)
			full := tc.query
			full.K = len(data)
			all := oracleAnswer(tc.measure, data, full)
			lo := 0
			for !strings.HasPrefix(all[lo].ID, "dup-") {
				lo++
			}
			for i := lo; i < lo+len(tieDupIDs); i++ {
				if all[i].ID != "dup-"+string(rune('a'+i-lo)) {
					t.Fatalf("oracle rank %d is %s: the duplicates are not one tie group starting at %d", i, all[i].ID, lo)
				}
			}
			if lo == 0 {
				t.Fatal("no trajectory ranks before the tie group; fixture is weaker than intended")
			}
			qry := tc.query
			qry.K = lo + len(tieDupIDs)/2 // the kth position splits the tie group

			var ref []Result
			engines := tieEngines(t, tc.measure, tc.trajs)
			for _, shards := range []int{1, 8} {
				eng := engines[shards]
				for _, workers := range []int{1, 2, 8} {
					eng.refineWorkers = workers
					for run := 0; run < 20; run++ {
						got, _, err := eng.Search(bg, qry, nil)
						if err != nil {
							t.Fatal(err)
						}
						if ref == nil {
							ref = got
							if d := diffOracle(tc.measure, data, qry, got); d != "" {
								t.Fatal(d)
							}
						} else if !reflect.DeepEqual(ref, got) {
							t.Fatalf("shards=%d workers=%d run=%d: answer differs from the first run", shards, workers, run)
						}
					}
				}
			}
		})
	}
}

// At lb == bound the feature-box shortcut must not fire: a trajectory that
// may tie the kth distance gets its exact value.
func TestClosestApproachAtBound(t *testing.T) {
	p := geo.Point{X: 0.5, Y: 0.5}
	pts := []geo.Point{{X: 0.4, Y: 0.6}, {X: 0.6, Y: 0.7}}
	boxes := []geo.Rect{geo.MBRPoints(pts)}
	lb := geo.DistPointRect(p, boxes[0])
	exact := p.Dist(pts[0])
	if !(lb < exact) {
		t.Fatalf("fixture: box bound %v must undercut the exact distance %v", lb, exact)
	}
	for _, tc := range []struct {
		name  string
		boxes []geo.Rect
		bound float64
		want  float64
	}{
		{"no bound yet", boxes, math.Inf(1), exact},
		{"lb < bound", boxes, math.Nextafter(lb, 1), exact},
		{"lb == bound", boxes, lb, exact},
		{"lb > bound", boxes, math.Nextafter(lb, 0), lb},
		{"no boxes", nil, math.Nextafter(lb, 0), exact},
	} {
		if got := closestApproach(p, pts, tc.boxes, tc.bound); got != tc.want {
			t.Errorf("%s: closestApproach = %v, want %v", tc.name, got, tc.want)
		}
	}
}
