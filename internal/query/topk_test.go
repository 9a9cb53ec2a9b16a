package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/oracle"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// storedSpaces counts the rows a store holds and the distinct index spaces
// they occupy.
func storedSpaces(t *testing.T, st *store.Store) (rows, spaces int) {
	t.Helper()
	values := map[uint64]bool{}
	all := allRows(t, st)
	for _, row := range all {
		values[binary.BigEndian.Uint64(row.Key[1:9])] = true // shard ‖ value ‖ id
	}
	return len(all), len(values)
}

// Top-k where seeding can go wrong, against the oracle, as exact
// (distance, id) sequences, for 1 and 8 shards and 1 and 4 refine workers —
// and in every run no index space, hence no row, is scanned twice.
func TestTopKSeedEdgesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	var walks []*traj.Trajectory
	for i := 0; i < 40; i++ {
		walks = append(walks, walk(rng, fmt.Sprintf("w%03d", i), 5+rng.Intn(30), 0.01))
	}

	// Stored: only taxis idling at max resolution. Queried: a trip across
	// them, so its own element and every ancestor hold nothing.
	var idlers []*traj.Trajectory
	for i := 0; i < 80; i++ {
		c := geo.Point{X: 0.40 + 0.1*rng.Float64(), Y: 0.40 + 0.1*rng.Float64()}
		idlers = append(idlers, traj.New(fmt.Sprintf("idle%03d", i), []geo.Point{c, {X: c.X + 1e-6, Y: c.Y + 1e-6}}))
	}
	trip := traj.New("trip", []geo.Point{{X: 0.41, Y: 0.41}, {X: 0.45, Y: 0.44}, {X: 0.49, Y: 0.48}})

	// 60 copies of one walk under ids unrelated to insertion order, a
	// background on the far side of the plane, and two queries: one shaped
	// like the copies (the seed finds them) and one four times their size
	// (its own element is coarser, so the main loop finds them).
	dup := walk(rand.New(rand.NewSource(102)), "", 20, 0.004)
	var dups []*traj.Trajectory
	for _, i := range rng.Perm(60) {
		dups = append(dups, traj.New(fmt.Sprintf("dup-%02d", i), dup.Points))
	}
	for i := 0; i < 40; i++ {
		far := walk(rng, fmt.Sprintf("far%03d", i), 10, 0.01)
		for j := range far.Points {
			far.Points[j] = geo.Point{X: geo.Clamp01(1 - dup.Points[0].X + far.Points[j].X/20), Y: geo.Clamp01(1 - dup.Points[0].Y + far.Points[j].Y/20)}
		}
		dups = append(dups, far)
	}
	likeDup := nearWalk(rng, dup, "q", 0.0005)
	big := make([]geo.Point, len(dup.Points))
	for i, p := range dup.Points {
		big[i] = geo.Point{X: geo.Clamp01(dup.Points[0].X + 4*(p.X-dup.Points[0].X)), Y: geo.Clamp01(dup.Points[0].Y + 4*(p.Y-dup.Points[0].Y))}
	}

	// A tie group split between two elements: a vertical query on the line
	// x = 1/2, 30 copies of a zig-zag just right of it — anchored in the
	// query's own cell, so the seed scans them — and 30 copies of its mirror
	// image just left of it, one cell over, which only the main loop reaches.
	// Coordinates are multiples of 2^-12, so mirroring, the codec and hence
	// the two distances are exact.
	const u = 1.0 / 4096
	var line, right, left []geo.Point
	for i := 0; i <= 10; i++ {
		y, dx := 0.5+float64(4*i)*u, float64(8+4*(i%2))*u
		line = append(line, geo.Point{X: 0.5, Y: y})
		right = append(right, geo.Point{X: 0.5 + dx, Y: y})
		left = append(left, geo.Point{X: 0.5 - dx, Y: y})
	}
	var mirrored []*traj.Trajectory
	for _, i := range rng.Perm(30) {
		mirrored = append(mirrored, traj.New(fmt.Sprintf("dup-%02d", i), left), traj.New(fmt.Sprintf("dup-%02d", 30+i), right))
	}

	// Timed walks over five days plus untimed ones, which every window admits.
	var timed []*traj.Trajectory
	for i, w := range walks {
		if i%8 == 7 {
			timed = append(timed, w)
			continue
		}
		times := make([]int64, w.Len())
		for j := range times {
			times[j] = int64(i%5)*daySecs + int64(j*10) + 1
		}
		timed = append(timed, traj.NewTimed(w.ID, w.Points, times))
	}

	for _, tc := range []struct {
		name    string
		measure dist.Measure
		trajs   []*traj.Trajectory
		q       *traj.Trajectory
		k       int
		window  TimeWindow
		premise func(t *testing.T, eng *Engine, all []oracle.Match)
	}{
		{name: "k above N", measure: dist.Frechet, trajs: walks, q: walks[3], k: 100},
		{name: "k equals N", measure: dist.DTW, trajs: walks, q: walks[3], k: 40},
		{name: "empty store", measure: dist.Frechet, q: walks[3], k: 5},
		{name: "own element and ancestors empty", measure: dist.Frechet, trajs: idlers, q: trip, k: 10,
			premise: func(t *testing.T, eng *Engine, _ []oracle.Match) {
				ix := eng.store.Index()
				xq := xzstar.NewQuery(trip.Points, nil)
				snap, err := eng.store.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Close()
				for s := ix.SEE(xq.MBR); s.Len() > 0; s = parentSeq(s) {
					for _, sp := range ix.CandidateSpaces(s, xq, math.Inf(1)) {
						if snap.HasValuesIn(sp.Value, sp.Value+1) {
							t.Fatalf("fixture: element %v on the query's seed path holds data", s)
						}
					}
				}
			}},
		{name: "single-point query", measure: dist.Hausdorff, trajs: append(append([]*traj.Trajectory(nil), walks...), idlers...),
			q: traj.New("pt", []geo.Point{{X: 0.45, Y: 0.45}}), k: 12},
		{name: "ties through the seed", measure: dist.Frechet, trajs: dups, q: likeDup, k: 50, premise: tiesStraddle},
		{name: "ties through the main loop", measure: dist.Frechet, trajs: dups, q: traj.New("big", big), k: 50, premise: tiesStraddle},
		{name: "ties straddling the seed and the main loop", measure: dist.Frechet, trajs: mirrored, q: traj.New("line", line), k: 50,
			premise: func(t *testing.T, eng *Engine, all []oracle.Match) {
				tiesStraddle(t, eng, all)
				ix := eng.store.Index()
				own, l, r := ix.SEE(geo.MBRPoints(line)), ix.Assign(left).Seq, ix.Assign(right).Seq
				if own.String() != r.String() || own.String() == l.String() {
					t.Fatalf("fixture: query element %v, right copies %v, left copies %v: want the right ones alone in the query's element", own, r, l)
				}
			}},
		{name: "windowed", measure: dist.Frechet, trajs: timed, q: walks[3], k: 15, window: TimeWindow{Start: daySecs, End: 3*daySecs - 1}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			data := oracle.Stored(tc.trajs)
			qry := Query{Kind: KindTopK, Traj: tc.q, K: tc.k, Window: tc.window}
			for shards, eng := range tieEngines(t, tc.measure, tc.trajs) {
				rows, spaces := storedSpaces(t, eng.store)
				if tc.premise != nil {
					tc.premise(t, eng, oracle.TopK(tc.measure, data, tc.q.Points, len(data), oracle.Window(tc.window)))
				}
				for _, workers := range []int{1, 4} {
					eng.refineWorkers = workers
					got, stats, err := eng.Search(bg, qry, nil)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffOracle(tc.measure, data, qry, got); d != "" {
						t.Fatalf("shards=%d workers=%d: %s", shards, workers, d)
					}
					if len(got) == 0 {
						continue // an empty store: nothing to count
					}
					if stats.Ranges > spaces || stats.RowsScanned > int64(rows) {
						t.Errorf("shards=%d workers=%d: scanned %d spaces and %d rows of a store holding %d and %d: something was scanned twice",
							shards, workers, stats.Ranges, stats.RowsScanned, spaces, rows)
					}
					// With fewer than k admitted rows the bound never turns
					// finite, nothing is pruned, and every space is scanned:
					// exactly once each.
					if len(got) < tc.k && tc.window.Unbounded() && (stats.Ranges != spaces || stats.RowsScanned != int64(rows)) {
						t.Errorf("shards=%d workers=%d: scanned %d spaces and %d rows, want every one of %d and %d exactly once",
							shards, workers, stats.Ranges, stats.RowsScanned, spaces, rows)
					}
				}
			}
		})
	}
}

// tiesStraddle requires the kth and (k+1)th oracle distances to be one tie
// group of the 60 copies, cut at 50.
func tiesStraddle(t *testing.T, _ *Engine, all []oracle.Match) {
	t.Helper()
	for i := 0; i < 60; i++ {
		if all[i].ID != fmt.Sprintf("dup-%02d", i) || all[i].Distance > all[0].Distance {
			t.Fatalf("fixture: oracle rank %d is (%s, %v); the copies are not the nearest tie group in id order", i, all[i].ID, all[i].Distance)
		}
	}
}

// The work a top-k query does, as counts: losing the seed (rows shipped x 3),
// the one scan per drain (RPCs x 4) or refinement in global lower-bound
// order (refined x 3) multiplies one of these, and fails here rather than
// only in the benchmark. One refine worker makes the counts exact for a given
// store; the ceilings are 1.5 x what this fixture recorded (mean per query:
// 53.7 refined, 339.2 RPCs, 773.6 rows scanned, 286.2 shipped), except that
// RPCs, rows scanned and shipped keep the ceilings of an earlier recording
// (317.5, 763.8 and 275.9).
func TestTopKWorkCounts(t *testing.T) {
	st, trajs := tdriveStore(t)
	eng := New(st, dist.Frechet)
	eng.refineWorkers = 1

	const queries, k = 32, 50
	var refined, rpcs, scanned, shipped float64
	for _, q := range gen.Queries(trajs, 7, queries) {
		got, stats, err := eng.TopKContext(bg, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("query %s: %d results, want %d", q.ID, len(got), k)
		}
		refined += float64(stats.Refined) / queries
		rpcs += float64(stats.RPCs) / queries
		scanned += float64(stats.RowsScanned) / queries
		shipped += float64(stats.Retrieved) / queries
	}
	t.Logf("mean per query: refined %.1f, RPCs %.1f, rows scanned %.1f, rows shipped %.1f", refined, rpcs, scanned, shipped)
	for _, c := range []struct {
		name          string
		mean, ceiling float64
	}{
		{"Refined", refined, 81},
		{"RPCs", rpcs, 476},
		{"RowsScanned", scanned, 1146},
		{"Retrieved", shipped, 414},
	} {
		if c.mean > c.ceiling {
			t.Errorf("mean %s per query = %.1f, above the ceiling %.0f", c.name, c.mean, c.ceiling)
		}
	}
}

// Refinement in global lower-bound order: with one worker, a best-first
// search runs the exact computation only on rows whose lower bound is at most
// the final kth distance; any other row it refined could have been ruled out
// by a row still unscanned. For top-k under each measure every kernel call is
// checked against the bound of the row it refines. The nearest search calls
// no kernel, so its refined count is held to the number of stored rows
// within the final kth distance by their feature boxes.
func TestBestFirstRefinesWithinFinalBound(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// DTW's lower bound is a largest matched distance and its kth distance a
	// sum of them, so a DTW search refines most of the store: keep it small.
	trajs := gen.TDrive(gen.TDriveOptions{Seed: 11, N: 2000})
	if err := st.PutBatch(trajs); err != nil {
		t.Fatal(err)
	}
	rows := allRows(t, st)
	byPoints := make(map[string]traj.RecordView, len(rows))
	for _, row := range rows {
		v, err := traj.ViewRecord(row.Value)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := store.DecodeRow(row.Value)
		if err != nil {
			t.Fatal(err)
		}
		byPoints[pointsKey(rec.Points)] = v
	}
	queries := gen.Queries(trajs, 11, 4)
	const k = 50
	scratch := new(filterScratch)

	for _, measure := range []dist.Measure{dist.Frechet, dist.Hausdorff, dist.DTW} {
		eng := New(st, measure)
		eng.refineWorkers = 1
		var qg *queryGeom
		var lbs []float64 // the lower bound of every row the query refined
		kernel := eng.kernel
		eng.kernel = func(q, pts []geo.Point, bound float64, row []float64) (float64, bool, []float64) {
			lb := math.Inf(1) // a row that is not stored fails below
			if v, ok := byPoints[pointsKey(pts)]; ok {
				lb, _, _ = localBound(qg, measure, v, scratch, math.Inf(1), false)
			}
			lbs = append(lbs, lb)
			return kernel(q, pts, bound, row)
		}
		for _, q := range queries {
			qg, lbs = eng.prepare(q), nil
			got, stats, err := eng.TopKContext(bg, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k || len(lbs) != stats.Refined {
				t.Fatalf("%v %s: %d results, %d kernel calls for %d refined", measure, q.ID, len(got), len(lbs), stats.Refined)
			}
			kth := got[k-1].Distance
			for _, lb := range lbs {
				if lb > kth {
					t.Errorf("%v %s: refined a row bounded by %v beyond the final kth distance %v", measure, q.ID, lb, kth)
				}
			}
		}
	}

	eng := New(st, dist.Frechet)
	eng.refineWorkers = 1
	for _, q := range queries {
		p := q.Points[len(q.Points)/2]
		got, stats, err := eng.Search(bg, Query{Kind: KindNearest, Point: p, K: k}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("nearest %v: %d results", p, len(got))
		}
		within := 0
		for _, v := range byPoints {
			if _, boxes, err := v.Features(nil, nil); err != nil {
				t.Fatal(err)
			} else if pointBoxBound(p, boxes) <= got[k-1].Distance {
				within++
			}
		}
		if stats.Refined > within {
			t.Errorf("nearest %v: refined %d rows, only %d are bounded within the final kth distance %v", p, stats.Refined, within, got[k-1].Distance)
		}
	}
}

// pointsKey identifies a trajectory by its points, bit for bit.
func pointsKey(pts []geo.Point) string {
	b := make([]byte, 0, 16*len(pts))
	for _, p := range pts {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.X))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Y))
	}
	return string(b)
}
