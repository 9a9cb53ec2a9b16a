package query

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/oracle"
	"repro/internal/store"
	"repro/internal/traj"
)

var bg = context.Background()

func walk(rng *rand.Rand, id string, n int, scale float64) *traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64(), rng.Float64()
	for i := range pts {
		pts[i] = geo.Point{X: geo.Clamp01(x), Y: geo.Clamp01(y)}
		x += (rng.Float64() - 0.5) * scale
		y += (rng.Float64() - 0.5) * scale
	}
	return traj.New(id, pts)
}

// nearWalk perturbs a trajectory slightly so it stays similar.
func nearWalk(rng *rand.Rand, base *traj.Trajectory, id string, jitter float64) *traj.Trajectory {
	pts := make([]geo.Point, len(base.Points))
	for i, p := range base.Points {
		pts[i] = geo.Point{
			X: geo.Clamp01(p.X + (rng.Float64()-0.5)*jitter),
			Y: geo.Clamp01(p.Y + (rng.Float64()-0.5)*jitter),
		}
	}
	return traj.New(id, pts)
}

type fixture struct {
	store  *store.Store
	trajs  []*traj.Trajectory
	stored []*traj.Trajectory // trajs as the store holds them
	engine *Engine
}

func newFixture(t testing.TB, measure dist.Measure, n int, seed int64) *fixture {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(seed))
	var trajs []*traj.Trajectory
	for i := 0; i < n; i++ {
		scale := []float64{0.002, 0.01, 0.05}[rng.Intn(3)]
		tr := walk(rng, fmt.Sprintf("t%05d", i), 5+rng.Intn(45), scale)
		trajs = append(trajs, tr)
		if err := st.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Add clusters of similar trajectories so queries actually match things.
	for c := 0; c < n/20; c++ {
		base := trajs[rng.Intn(len(trajs))]
		for j := 0; j < 3; j++ {
			tr := nearWalk(rng, base, fmt.Sprintf("c%05d-%d", c, j), 0.004)
			trajs = append(trajs, tr)
			if err := st.Put(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return &fixture{store: st, trajs: trajs, stored: oracle.Stored(trajs), engine: New(st, measure)}
}

// diffOracle compares an engine's answer to q with the oracle's over data,
// exactly, and describes the first difference ("" when they are equal). Each
// match must also carry its trajectory's stored points.
func diffOracle(measure dist.Measure, data []*traj.Trajectory, q Query, got []Result) string {
	if d := oracle.Diff(answerOf(q, got), oracleAnswer(measure, data, q)); d != "" {
		return d
	}
	points := make(map[string][]geo.Point, len(data))
	for _, tr := range data {
		points[tr.ID] = tr.Points
	}
	for _, r := range got {
		if !slices.Equal(r.Points, points[r.ID]) {
			return fmt.Sprintf("%s carries %d points that are not its %d stored ones", r.ID, len(r.Points), len(points[r.ID]))
		}
	}
	return ""
}

// oracleAnswer is the oracle's answer to q over data.
func oracleAnswer(measure dist.Measure, data []*traj.Trajectory, q Query) []oracle.Match {
	w := oracle.Window(q.Window)
	switch q.Kind {
	case KindThreshold:
		return oracle.Threshold(measure, data, q.Traj.Points, q.Eps, w)
	case KindTopK:
		return oracle.TopK(measure, data, q.Traj.Points, q.K, w)
	case KindRange:
		return oracle.Range(data, q.Rect, w)
	default:
		return oracle.Nearest(data, q.Point, q.K)
	}
}

// answerOf puts an engine's answer to q in the oracle's terms. A threshold or
// range answer is a set, put in id order.
func answerOf(q Query, got []Result) []oracle.Match {
	ms := make([]oracle.Match, len(got))
	for i, r := range got {
		ms[i] = oracle.Match{ID: r.ID, Distance: r.Distance}
	}
	if q.Kind == KindThreshold || q.Kind == KindRange {
		oracle.ByID(ms)
	}
	return ms
}

// search runs q on the fixture's engine and compares its answer with the
// oracle's.
func (f *fixture) search(t *testing.T, q Query) (got []Result, stats *Stats) {
	t.Helper()
	got, stats, err := f.engine.Search(bg, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffOracle(f.engine.measure, f.stored, q, got); d != "" {
		t.Fatalf("%s: %s (stats %+v)", searchCase{f.engine.measure, q}, d, stats)
	}
	return got, stats
}

func TestThresholdMatchesBruteForce(t *testing.T) {
	for _, measure := range []dist.Measure{dist.Frechet, dist.Hausdorff, dist.DTW} {
		measure := measure
		t.Run(measure.String(), func(t *testing.T) {
			f := newFixture(t, measure, 300, 42)
			rng := rand.New(rand.NewSource(43))
			queries := 8
			if testing.Short() {
				queries = 3
			}
			for qi := 0; qi < queries; qi++ {
				// Half the queries are perturbed stored trajectories, so
				// matches exist; half are fresh.
				var q *traj.Trajectory
				if qi%2 == 0 {
					q = nearWalk(rng, f.trajs[rng.Intn(len(f.trajs))], "q", 0.002)
				} else {
					q = walk(rng, "q", 20, 0.01)
				}
				eps := []float64{0.005, 0.01, 0.02}[rng.Intn(3)]
				if measure == dist.DTW {
					eps *= 10 // DTW accumulates; use a looser threshold
				}
				f.search(t, Query{Kind: KindThreshold, Traj: q, Eps: eps})
			}
		})
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	for _, measure := range []dist.Measure{dist.Frechet, dist.Hausdorff, dist.DTW} {
		measure := measure
		t.Run(measure.String(), func(t *testing.T) {
			f := newFixture(t, measure, 250, 44)
			rng := rand.New(rand.NewSource(45))
			queries := 6
			if testing.Short() {
				queries = 2
			}
			for qi := 0; qi < queries; qi++ {
				var q *traj.Trajectory
				if qi%2 == 0 {
					q = nearWalk(rng, f.trajs[rng.Intn(len(f.trajs))], "q", 0.002)
				} else {
					q = walk(rng, "q", 15, 0.01)
				}
				k := []int{1, 5, 20}[rng.Intn(3)]
				f.search(t, Query{Kind: KindTopK, Traj: q, K: k})
			}
		})
	}
}

func TestTopKMoreThanStored(t *testing.T) {
	f := newFixture(t, dist.Frechet, 20, 46)
	q := walk(rand.New(rand.NewSource(47)), "q", 10, 0.01)
	if got, _ := f.search(t, Query{Kind: KindTopK, Traj: q, K: 10000}); len(got) != len(f.trajs) {
		t.Fatalf("got %d results, want all %d", len(got), len(f.trajs))
	}
}

func TestTopKZero(t *testing.T) {
	f := newFixture(t, dist.Frechet, 10, 48)
	got, stats, err := f.engine.TopKContext(bg, walk(rand.New(rand.NewSource(1)), "q", 5, 0.01), 0)
	if err != nil || len(got) != 0 || stats == nil {
		t.Fatalf("k=0: %v %v %v", got, stats, err)
	}
}

func TestThresholdEmptyStore(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := New(st, dist.Frechet)
	got, stats, err := e.ThresholdContext(bg, walk(rand.New(rand.NewSource(1)), "q", 5, 0.01), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("results from empty store: %v", got)
	}
	if stats.Results != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	f := newFixture(t, dist.Frechet, 10, 49)
	if _, _, err := f.engine.ThresholdContext(bg, nil, 0.01); err == nil {
		t.Fatal("nil query must fail")
	}
	if _, _, err := f.engine.TopKContext(bg, nil, 5); err == nil {
		t.Fatal("nil query must fail")
	}
}

// The pruning pipeline must actually prune: a localized query over a spread
// dataset should scan far fewer rows than the store holds.
func TestThresholdPrunes(t *testing.T) {
	f := newFixture(t, dist.Frechet, 400, 50)
	rng := rand.New(rand.NewSource(51))
	q := nearWalk(rng, f.trajs[0], "q", 0.002)
	_, stats, err := f.engine.ThresholdContext(bg, q, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	total := f.store.Count()
	if stats.RowsScanned >= total {
		t.Fatalf("no pruning: scanned %d of %d rows", stats.RowsScanned, total)
	}
	if stats.Retrieved > stats.RowsScanned {
		t.Fatalf("retrieved %d > scanned %d", stats.Retrieved, stats.RowsScanned)
	}
}

// Local filtering keeps only candidates that refinement mostly confirms:
// precision must be reasonable and never above 1.
func TestStatsConsistency(t *testing.T) {
	f := newFixture(t, dist.Frechet, 300, 52)
	rng := rand.New(rand.NewSource(53))
	q := nearWalk(rng, f.trajs[5], "q", 0.002)
	results, stats, err := f.engine.ThresholdContext(bg, q, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != len(results) {
		t.Fatalf("stats.Results=%d, len=%d", stats.Results, len(results))
	}
	if p := stats.Precision(); p < 0 || p > 1 {
		t.Fatalf("precision %v out of range", p)
	}
	if int64(stats.Refined) != stats.Retrieved {
		t.Fatalf("refined %d != retrieved %d", stats.Refined, stats.Retrieved)
	}
}

func BenchmarkThreshold(b *testing.B) {
	f := newFixture(b, dist.Frechet, 2000, 60)
	rng := rand.New(rand.NewSource(61))
	q := nearWalk(rng, f.trajs[100], "q", 0.002)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.engine.ThresholdContext(bg, q, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopK(b *testing.B) {
	f := newFixture(b, dist.Frechet, 2000, 62)
	rng := rand.New(rand.NewSource(63))
	q := nearWalk(rng, f.trajs[100], "q", 0.002)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.engine.TopKContext(bg, q, 50); err != nil {
			b.Fatal(err)
		}
	}
}
