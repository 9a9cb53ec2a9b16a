package query

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"math"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/traj"
)

// The streaming pipeline's core contract: for every query kind, windowed or
// not, every worker count and every queue depth returns exactly what the
// one-worker, depth-one run returns — and that reference
// is itself checked against the brute-force ground truth, so the runs cannot
// all agree on a wrong answer.
func TestStreamDeterminismMatchesCollectAll(t *testing.T) {
	f := newFixture(t, dist.Frechet, 200, 81)
	rng := rand.New(rand.NewSource(82))
	q := nearWalk(rng, f.trajs[3], "q", 0.002)
	const eps = 0.01
	window := geo.Rect{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.9, Y: 0.9}}
	point := geo.Point{X: 0.5, Y: 0.5}

	queries := []Query{
		{Kind: KindThreshold, Traj: q, Eps: eps},
		{Kind: KindTopK, Traj: q, K: 25},
		{Kind: KindRange, Rect: window},
		{Kind: KindNearest, Point: point, K: 25},
	}
	// The fixture is untimed, so a bounded window admits every row but still
	// runs the windowed filter in front of the spatial one.
	for _, base := range queries[:3] {
		base.Window = TimeWindow{Start: 1, End: 2}
		queries = append(queries, base)
	}
	exec := func() [][]Result {
		out := make([][]Result, len(queries))
		for i, qry := range queries {
			var err error
			if out[i], _, err = f.engine.Search(bg, qry, nil); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	f.engine.refineWorkers = 1
	f.engine.streamDepth = 1
	ref := exec()

	wantThr := f.bruteThreshold(q, eps, dist.Frechet)
	if len(wantThr) == 0 || len(ref[0]) != len(wantThr) {
		t.Fatalf("reference threshold returned %d results, brute force %d", len(ref[0]), len(wantThr))
	}
	for _, r := range ref[0] {
		if _, ok := wantThr[r.ID]; !ok {
			t.Fatalf("reference threshold returned %s, which brute force rejects", r.ID)
		}
	}
	wantTop := f.bruteTopK(q, 25, dist.Frechet)
	if len(ref[1]) != len(wantTop) {
		t.Fatalf("reference top-k returned %d results, brute force %d", len(ref[1]), len(wantTop))
	}
	for i, r := range ref[1] {
		if math.Abs(r.Distance-wantTop[i]) > 1e-6 {
			t.Fatalf("reference top-k rank %d: distance %v, brute force %v", i, r.Distance, wantTop[i])
		}
	}
	if want := bruteRange(f, window); len(ref[2]) != len(want) || len(want) == 0 {
		t.Fatalf("reference range returned %d results, brute force %d", len(ref[2]), len(want))
	}
	wantKNN := bruteNearest(f, point, 25)
	if len(ref[3]) != len(wantKNN) {
		t.Fatalf("reference point-kNN returned %d results, brute force %d", len(ref[3]), len(wantKNN))
	}
	for i, r := range ref[3] {
		if math.Abs(r.Distance-wantKNN[i]) > 1e-6 {
			t.Fatalf("reference point-kNN rank %d: distance %v, brute force %v", i, r.Distance, wantKNN[i])
		}
	}

	for _, workers := range []int{1, 2, 8} {
		for _, depth := range []int{1, 0} { // 1 = fully serialized hand-off, 0 = default
			f.engine.refineWorkers = workers
			f.engine.streamDepth = depth
			for i, got := range exec() {
				if !reflect.DeepEqual(ref[i], got) {
					t.Errorf("workers=%d depth=%d: %+v differs from the serialized run", workers, depth, queries[i])
				}
			}
		}
	}
}

// streamOccupancyBound is the pipeline's documented hard cap on candidates
// resident between the scan and the merge (see the head of stream.go): depth
// queued, one in the scan's hand, one per worker until its merge returns.
func streamOccupancyBound(depth, workers int) int { return depth + workers + 1 }

// The queue's capacity is a hard occupancy bound: with depth 2 and four
// workers no more than streamOccupancyBound(2, 4) candidates — far fewer than
// the rows shipped — may ever sit between the scan and the merge, while every
// shipped row is still refined.
func TestStreamPeakDepthBounded(t *testing.T) {
	f, base := refineFixture(t, 150, 40, 83)
	f.engine.refineWorkers = 4
	f.engine.streamDepth = 2
	_, stats, err := f.engine.ThresholdContext(bg, base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retrieved < 100 {
		t.Fatalf("fixture shipped only %d rows; test is vacuous", stats.Retrieved)
	}
	if bound := streamOccupancyBound(2, 4); stats.StreamPeakDepth < 1 || stats.StreamPeakDepth > bound {
		t.Errorf("StreamPeakDepth = %d, want within [1, %d]", stats.StreamPeakDepth, bound)
	}
	if int64(stats.Refined) != stats.Retrieved {
		t.Errorf("Refined = %d, Retrieved = %d: bounding the queue must not drop candidates", stats.Refined, stats.Retrieved)
	}
	if stats.StreamBatches == 0 {
		t.Error("StreamBatches = 0 on a streaming query")
	}
}

// When refinement is slower than the scan and the queue is depth 1, the scan
// must block — recorded as StreamStallTime. Driven through the executor
// directly so the slow stage is deterministic.
func TestStreamBackpressureStalls(t *testing.T) {
	f, _ := refineFixture(t, 1, 10, 85)
	rows := allRows(t, f.store)
	if len(rows) == 0 {
		t.Fatal("empty fixture")
	}
	// 30 copies of the row: enough hand-offs for a stall to be inevitable.
	var entries []kv.Entry
	for i := 0; i < 30; i++ {
		entries = append(entries, rows...)
	}
	f.engine.refineWorkers = 1
	f.engine.streamDepth = 1
	stats := &Stats{}
	err := f.engine.refineFromScan(bg, stats, sliceScan(entries, 1),
		func(rec *traj.Record, row []float64) (refineOutcome, []float64) {
			time.Sleep(time.Millisecond)
			return refineOutcome{rec: rec, keep: true}, row
		},
		func(o refineOutcome) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Refined != len(entries) {
		t.Fatalf("refined %d of %d candidates", stats.Refined, len(entries))
	}
	if stats.StreamStallTime <= 0 {
		t.Errorf("StreamStallTime = %v with a slow consumer and depth 1; backpressure never reached the scan", stats.StreamStallTime)
	}
	if bound := streamOccupancyBound(1, 1); stats.StreamPeakDepth > bound {
		t.Errorf("StreamPeakDepth = %d exceeds the bound %d for depth 1, one worker", stats.StreamPeakDepth, bound)
	}
}

// A threshold sink receives every match exactly once, and an error from it
// aborts the search and comes back unwrapped.
func TestThresholdSinkDeliveryAndAbort(t *testing.T) {
	f, base := refineFixture(t, 120, 30, 86)
	f.engine.refineWorkers = 4

	want, _, err := f.engine.ThresholdContext(bg, base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 120 {
		t.Fatalf("fixture matches %d rows, want 120", len(want))
	}

	var got []Result
	qry := Query{Kind: KindThreshold, Traj: base, Eps: 0.5}
	rs, stats, err := f.engine.Search(bg, qry, func(r Result) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs != nil {
		t.Fatalf("Search returned %d results beside a sink", len(rs))
	}
	if stats.Results != len(want) || len(got) != len(want) {
		t.Fatalf("streamed %d results (stats %d), want %d", len(got), stats.Results, len(want))
	}
	byID := func(rs []Result) []Result {
		out := append([]Result(nil), rs...)
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	if !reflect.DeepEqual(byID(got), byID(want)) {
		t.Fatal("streamed result set differs from the collected one")
	}

	sentinel := errors.New("enough")
	delivered := 0
	_, _, err = f.engine.Search(bg, qry, func(r Result) error {
		delivered++
		if delivered >= 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("aborted search returned %v, want the callback's error", err)
	}
	if delivered != 3 {
		t.Fatalf("callback ran %d times after aborting at 3", delivered)
	}
}

// A range sink is held to the same contract.
func TestRangeSinkDelivery(t *testing.T) {
	f := newFixture(t, dist.Frechet, 100, 87)
	window := geo.Rect{Min: geo.Point{}, Max: geo.Point{X: 1, Y: 1}}
	want, _, err := f.engine.RangeContext(bg, window)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("vacuous window")
	}
	count := 0
	_, stats, err := f.engine.Search(bg, Query{Kind: KindRange, Rect: window}, func(r Result) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(want) || stats.Results != len(want) {
		t.Fatalf("streamed %d results (stats %d), want %d", count, stats.Results, len(want))
	}
}

// Threshold and range sinks run on the refine workers, and the pool never
// lets two calls overlap: with eight workers and a sink that sleeps inside,
// every match still arrives exactly once, one call at a time, and every call
// has returned by the time Search does.
func TestStreamSinkCallsSerialized(t *testing.T) {
	f, base := refineFixture(t, 150, 20, 89)
	f.engine.refineWorkers = 8
	for _, qry := range []Query{
		{Kind: KindThreshold, Traj: base, Eps: 0.5},
		{Kind: KindRange, Rect: geo.Rect{Max: geo.Point{X: 1, Y: 1}}},
	} {
		want, _, err := f.engine.Search(bg, qry, nil)
		if err != nil {
			t.Fatal(err)
		}
		var inside atomic.Bool
		var calls atomic.Int64   // counted as each call returns
		seen := map[string]int{} // written only by a call that is alone inside
		_, stats, err := f.engine.Search(bg, qry, func(r Result) error {
			defer calls.Add(1)
			if !inside.CompareAndSwap(false, true) {
				t.Errorf("kind %d: sink entered while another call was inside it", qry.Kind)
				return nil
			}
			seen[r.ID]++
			time.Sleep(50 * time.Microsecond)
			if !inside.CompareAndSwap(true, false) {
				t.Errorf("kind %d: sink left while another call was inside it", qry.Kind)
			}
			return nil
		})
		n := calls.Load()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Retrieved < 100 || len(want) < 100 {
			t.Fatalf("kind %d: fixture shipped %d rows, matched %d; test is vacuous", qry.Kind, stats.Retrieved, len(want))
		}
		if n != int64(stats.Results) || len(seen) != len(want) {
			t.Fatalf("kind %d: %d sink calls returned before Search, %d distinct ids, stats.Results %d, want %d",
				qry.Kind, n, len(seen), stats.Results, len(want))
		}
		for _, r := range want {
			if seen[r.ID] != 1 {
				t.Errorf("kind %d: %s delivered %d times", qry.Kind, r.ID, seen[r.ID])
			}
		}
	}
}

// A top-k or nearest sink receives the collected answer, in its order.
func TestBestFirstSinkDeliversInOrder(t *testing.T) {
	f := newFixture(t, dist.Frechet, 100, 88)
	for _, qry := range []Query{
		{Kind: KindTopK, Traj: f.trajs[7], K: 10},
		{Kind: KindNearest, Point: geo.Point{X: 0.5, Y: 0.5}, K: 10},
	} {
		want, _, err := f.engine.Search(bg, qry, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []Result
		rs, stats, err := f.engine.Search(bg, qry, func(r Result) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if rs != nil || stats.Results != len(want) || len(want) != 10 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: sink saw %d results (stats %d, returned %d), collected run %d", qry, len(got), stats.Results, len(rs), len(want))
		}
	}
}

// sliceScan is a scanFunc that replays entries in batches of n, for tests
// that drive refineFromScan without a store scan.
func sliceScan(entries []kv.Entry, n int) scanFunc {
	return func(ctx context.Context, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
		for i := 0; i < len(entries); i += n {
			if err := emit(entries[i:min(i+n, len(entries))]); err != nil {
				return nil, err
			}
		}
		return &cluster.ScanResult{}, nil
	}
}
