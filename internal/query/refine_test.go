package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// refineFixture builds a store of n near-duplicates of one base trajectory
// (pts points each), so a threshold query over the cluster refines every
// stored row — the refinement-dominated workload the executor exists for.
func refineFixture(t testing.TB, n, pts int, seed int64) (*fixture, *traj.Trajectory) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(seed))
	base := walk(rng, "base", pts, 0.001)
	var trajs []*traj.Trajectory
	for i := 0; i < n; i++ {
		tr := nearWalk(rng, base, fmt.Sprintf("n%05d", i), 0.002)
		trajs = append(trajs, tr)
		if err := st.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return &fixture{store: st, trajs: trajs, engine: New(st, dist.DTW)}, base
}

// allRows fetches every stored row raw through a snapshot, bypassing the
// query pipeline, for the tests that drive the executor directly.
func allRows(t testing.TB, st *store.Store) []kv.Entry {
	t.Helper()
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var rows []kv.Entry
	_, err = snap.ScanRangesStream(context.Background(), []xzstar.ValueRange{{Lo: 0, Hi: math.MaxInt64}}, nil, 0,
		store.StreamOptions{}, func(batch []kv.Entry) error {
			rows = append(rows, batch...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// The executor's contract: results are byte-identical for any worker count,
// on every query type (results carry a total order, so arrival order is
// immaterial; the shared bound only loosens prefilters, never decisions).
func TestRefineDeterminismAcrossWorkers(t *testing.T) {
	for _, measure := range []dist.Measure{dist.Frechet, dist.DTW} {
		measure := measure
		t.Run(measure.String(), func(t *testing.T) {
			f := newFixture(t, measure, 200, 71)
			rng := rand.New(rand.NewSource(72))
			q := nearWalk(rng, f.trajs[3], "q", 0.002)
			eps := 0.01
			if measure == dist.DTW {
				eps = 0.1
			}
			window := geo.Rect{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.9, Y: 0.9}}
			point := geo.Point{X: 0.5, Y: 0.5}

			type run struct {
				threshold, topk, rng, knn []Result
			}
			var runs []run
			for _, workers := range []int{1, 2, 8} {
				f.engine.refineWorkers = workers
				var r run
				var err error
				if r.threshold, _, err = f.engine.ThresholdContext(bg, q, eps); err != nil {
					t.Fatal(err)
				}
				if r.topk, _, err = f.engine.TopKContext(bg, q, 25); err != nil {
					t.Fatal(err)
				}
				if r.rng, _, err = f.engine.RangeContext(bg, window); err != nil {
					t.Fatal(err)
				}
				if r.knn, _, err = f.engine.Search(bg, Query{Kind: KindNearest, Point: point, K: 25}, nil); err != nil {
					t.Fatal(err)
				}
				runs = append(runs, r)
			}
			for i := 1; i < len(runs); i++ {
				if !reflect.DeepEqual(runs[0].threshold, runs[i].threshold) {
					t.Errorf("threshold results differ between workers=1 and run %d", i)
				}
				if !reflect.DeepEqual(runs[0].topk, runs[i].topk) {
					t.Errorf("topk results differ between workers=1 and run %d", i)
				}
				if !reflect.DeepEqual(runs[0].rng, runs[i].rng) {
					t.Errorf("range results differ between workers=1 and run %d", i)
				}
				if !reflect.DeepEqual(runs[0].knn, runs[i].knn) {
					t.Errorf("point-kNN results differ between workers=1 and run %d", i)
				}
			}
		})
	}
}

// The time-window variants share the same refinement path; spot-check their
// determinism too.
func TestRefineDeterminismWindowVariants(t *testing.T) {
	f := newFixture(t, dist.Frechet, 150, 73)
	rng := rand.New(rand.NewSource(74))
	q := nearWalk(rng, f.trajs[1], "q", 0.002)
	w := TimeWindow{} // unbounded: exercises the shared code path
	var prev []Result
	for i, workers := range []int{1, 8} {
		f.engine.refineWorkers = workers
		got, _, err := f.engine.Search(bg, Query{Kind: KindThreshold, Traj: q, Eps: 0.01, Window: w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reflect.DeepEqual(prev, got) {
			t.Errorf("windowed threshold differs between workers=1 and workers=%d", workers)
		}
		prev = got
	}
}

// A context cancelled mid-refinement must stop the executor promptly with
// ctx's error: no new candidates are claimed once ctx is done, so at most
// one candidate per other worker — one that was claimed before the cancel
// landed — is worked on after it. The work function makes that count
// structural: the cancelAfter-th call cancels, and any call numbered after it
// parks until cancel() has returned, so a worker can be past its ctx check at
// most once, however the scheduler interleaves them.
func TestRefineCancellationMidRefine(t *testing.T) {
	f, _ := refineFixture(t, 200, 40, 75)
	const workers = 4
	f.engine.refineWorkers = workers

	rows := allRows(t, f.store)
	if len(rows) < 100 {
		t.Fatalf("fixture too small: %d entries", len(rows))
	}

	const cancelAfter = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	cancelled := make(chan struct{})
	stats := &Stats{}
	err := f.engine.refineFromScan(ctx, stats, sliceScan(rows, len(rows)),
		func(rec *traj.Record, row []float64) (refineOutcome, []float64) {
			switch n := started.Add(1); {
			case n == cancelAfter:
				cancel()
				close(cancelled)
			case n > cancelAfter:
				<-cancelled
			}
			return refineOutcome{rec: rec, keep: true}, row
		},
		func(o refineOutcome) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("refineFromScan returned %v, want context.Canceled", err)
	}
	if got := started.Load(); got > cancelAfter+workers-1 {
		t.Errorf("workers started %d candidates with the cancel at %d (workers=%d); a worker claimed one after ctx was done", got, cancelAfter, workers)
	}
	if stats.Refined >= len(rows) {
		t.Errorf("merge consumed all %d entries despite cancellation", stats.Refined)
	}
}

// End to end, a deadline that expires mid-query surfaces ctx's error from
// whatever stage notices it first (scan or refine); it must never be
// swallowed into a partial result.
func TestRefineCancellationEndToEnd(t *testing.T) {
	f, base := refineFixture(t, 200, 80, 79)
	f.engine.refineWorkers = 2
	eps := 0.5 // admits every near-duplicate under DTW

	t0 := time.Now()
	res, stats, err := f.engine.ThresholdContext(context.Background(), base, eps)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)
	if stats.Refined < 200 || len(res) != 200 {
		t.Fatalf("fixture must refine and match all 200 rows; refined %d, matched %d", stats.Refined, len(res))
	}

	ctx, cancel := context.WithTimeout(context.Background(), full/20)
	defer cancel()
	ms, st, err := f.engine.ThresholdContext(ctx, base, eps)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled query returned (%d results, %v, %v), want context.DeadlineExceeded", len(ms), st, err)
	}
}

// A context cancelled before the query starts must not return results.
func TestRefinePreCancelled(t *testing.T) {
	f := newFixture(t, dist.Frechet, 50, 76)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.engine.ThresholdContext(ctx, f.trajs[0], 0.01); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query returned %v, want context.Canceled", err)
	}
}

// Stats contract: RefineTime is stage wall-clock, RefineCPUTime the summed
// worker busy time, RefineWorkers the pool size actually used, and Refined
// still mirrors the shipped candidate count on threshold queries.
func TestRefineStatsAccounting(t *testing.T) {
	f, base := refineFixture(t, 300, 60, 77)
	f.engine.refineWorkers = 4
	_, stats, err := f.engine.ThresholdContext(bg, base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RefineWorkers != 4 {
		t.Errorf("RefineWorkers = %d, want 4", stats.RefineWorkers)
	}
	if stats.Refined == 0 || int64(stats.Refined) != stats.Retrieved {
		t.Errorf("Refined = %d, Retrieved = %d; refinement must cover every shipped row", stats.Refined, stats.Retrieved)
	}
	if stats.RefineCPUTime <= 0 {
		t.Errorf("RefineCPUTime = %v, want > 0", stats.RefineCPUTime)
	}
	if stats.RefineTime <= 0 {
		t.Errorf("RefineTime = %v, want > 0", stats.RefineTime)
	}

	// Sequential: cumulative busy time and wall-clock measure the same loop,
	// so CPU time cannot exceed wall-clock by more than timer noise.
	f.engine.refineWorkers = 1
	_, stats, err = f.engine.ThresholdContext(bg, base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RefineWorkers != 1 {
		t.Errorf("sequential RefineWorkers = %d, want 1", stats.RefineWorkers)
	}
	if stats.RefineCPUTime > stats.RefineTime+stats.RefineTime/4+time.Millisecond {
		t.Errorf("sequential RefineCPUTime %v exceeds wall-clock %v", stats.RefineCPUTime, stats.RefineTime)
	}
}

// refineWorkers 0 resolves to the default (GOMAXPROCS) and negative values
// are treated as the default, never a hang.
func TestRefineParallelismKnob(t *testing.T) {
	f := newFixture(t, dist.Frechet, 30, 78)
	for _, n := range []int{0, -3} {
		f.engine.refineWorkers = n
		if got := f.engine.refineParallelism(); got < 1 {
			t.Fatalf("refineWorkers %d: resolved pool %d < 1", n, got)
		}
		if _, _, err := f.engine.ThresholdContext(bg, f.trajs[0], 0.01); err != nil {
			t.Fatal(err)
		}
	}
}

// A candidate pays for one distance computation: the threshold work function
// calls the measure's bounded kernel once per shipped row, match or not, and
// the distance it reports is the full kernel's, bit for bit.
func TestThresholdOneKernelCallPerCandidate(t *testing.T) {
	f, base := refineFixture(t, 120, 30, 92)
	f.engine.refineWorkers = 4
	var calls atomic.Int64
	kernel := f.engine.kernel
	f.engine.kernel = func(q, tr []geo.Point, bound float64, row []float64) (float64, bool, []float64) {
		calls.Add(1)
		return kernel(q, tr, bound, row)
	}
	all, _, err := f.engine.ThresholdContext(bg, base, 0.5)
	if err != nil || len(all) != 120 {
		t.Fatalf("fixture: %d of 120 rows within 0.5 (%v)", len(all), err)
	}
	ds := make([]float64, len(all))
	for i, r := range all {
		ds[i] = r.Distance
	}
	sort.Float64s(ds)
	// The median distance admits half the cluster, so matches and rejections
	// both count.
	calls.Store(0)
	res, stats, err := f.engine.ThresholdContext(bg, base, ds[len(ds)/2])
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || int64(len(res)) >= stats.Retrieved {
		t.Fatalf("fixture: %d matches of %d shipped rows; want some of each", len(res), stats.Retrieved)
	}
	if got := calls.Load(); got != stats.Retrieved || stats.Refined != int(stats.Retrieved) {
		t.Errorf("%d kernel calls, %d refined, for %d shipped rows and %d matches: want one call per shipped row", got, stats.Refined, stats.Retrieved, len(res))
	}
	full := dist.For(dist.DTW)
	for _, r := range res {
		if want := full(base.Points, r.Points); math.Float64bits(r.Distance) != math.Float64bits(want) {
			t.Errorf("%s: distance %v, full kernel %v", r.ID, r.Distance, want)
		}
	}
}

// The engine's own stage timers: decode and kernel time are measured inside
// the worker's busy time and, on a refinement-dominated query, account for
// all but a tenth of it — on the streaming executor (threshold) and on the
// ordered one (top-k), where the remainder is the lower-bound ordering.
func TestStageTimersAccountForRefineCPU(t *testing.T) {
	f, base := refineFixture(t, 300, 120, 93)
	f.engine.refineWorkers = 2
	for _, q := range []Query{
		{Kind: KindThreshold, Traj: base, Eps: 2},
		{Kind: KindTopK, Traj: base, K: 300},
	} {
		_, stats, err := f.engine.Search(bg, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Refined < 300 {
			t.Fatalf("kind %d refined %d rows; the fixture must refine all 300", q.Kind, stats.Refined)
		}
		staged := stats.DecodeTime + stats.KernelTime
		if stats.DecodeTime <= 0 || stats.KernelTime <= 0 || staged > stats.RefineCPUTime || staged < stats.RefineCPUTime*9/10 {
			t.Errorf("kind %d: decode %v + kernel %v = %v, refine CPU %v: want within a tenth below it",
				q.Kind, stats.DecodeTime, stats.KernelTime, staged, stats.RefineCPUTime)
		}
		if (q.Kind == KindTopK) != (stats.SeedTime > 0) {
			t.Errorf("kind %d: SeedTime = %v", q.Kind, stats.SeedTime)
		}
	}
}
