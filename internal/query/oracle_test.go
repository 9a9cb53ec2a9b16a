package query

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/oracle"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// maxCell is the side of a cell at the default maximum resolution.
const maxCell = 1.0 / (1 << xzstar.DefaultResolution)

// differentialData is gen data plus the shapes pruning and filtering are
// likeliest to get wrong: a single point, all-identical points, trajectories
// straddling x = 1/2 and y = 1/2 at the maximum resolution's cell size,
// coordinates exactly 0 and 1, four exact duplicates of "td000001", named
// out of insertion order, which tie with it at distance 0 from it, and a
// segment beside its copy moved by 2^-20 in x, whose distance from it is a
// threshold's knife-edge. Every third gen trajectory is timed, in turn on
// day 1, 2 and 3, each starting at its day's first second; the rest and the
// added shapes are untimed. So the window of day 2 admits a timed row whose
// first timestamp is its start, and rejects one that starts a second after
// its end.
func differentialData(seed int64) []*traj.Trajectory {
	var data []*traj.Trajectory
	for _, tr := range append(gen.TDrive(gen.TDriveOptions{Seed: seed, N: 120}), gen.Lorry(gen.LorryOptions{Seed: seed, N: 40})...) {
		// At most 40 points each: the oracle's kernels are quadratic.
		data = append(data, traj.New(tr.ID, tr.Points[:min(len(tr.Points), 40)]))
	}
	for i := 0; i < len(data); i += 3 {
		times := make([]int64, data[i].Len())
		for j := range times {
			times[j] = int64(1+(i/3)%3)*daySecs + int64(10*j)
		}
		data[i] = traj.NewTimed(data[i].ID, data[i].Points, times)
	}
	for _, id := range []string{"dup-c", "dup-a", "dup-d", "dup-b"} {
		data = append(data, traj.New(id, data[1].Points))
	}
	const c, shift = maxCell, 1.0 / (1 << 20)
	still := make([]geo.Point, 6)
	for i := range still {
		still[i] = geo.Point{X: 0.25, Y: 0.25}
	}
	return append(data,
		traj.New("adv-seg", []geo.Point{{X: 0.6, Y: 0.6}, {X: 0.6 + 3*c, Y: 0.6 + c}}),
		traj.New("adv-seg-twin", []geo.Point{{X: 0.6 + shift, Y: 0.6}, {X: 0.6 + 3*c + shift, Y: 0.6 + c}}),
		traj.New("adv-point", []geo.Point{{X: 0.3, Y: 0.7}}),
		traj.New("adv-still", still),
		traj.New("adv-straddle-xy", []geo.Point{{X: 0.5 - c/2, Y: 0.5 - c/2}, {X: 0.5 + c/2, Y: 0.5 + c/2}}),
		traj.New("adv-straddle-x", []geo.Point{{X: 0.5 - c/4, Y: 0.25}, {X: 0.5 + c/4, Y: 0.25 + c/2}}),
		traj.New("adv-edges", []geo.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 0}}),
		traj.New("adv-one", []geo.Point{{X: 1, Y: 1}}),
		traj.New("adv-right", []geo.Point{{X: 1, Y: 0.4}, {X: 1, Y: 0.4 + c}}),
	)
}

// differentialStore loads data into a fresh store: the first half as one
// flushed batch, the rest put one at a time and left in the memtable.
func differentialStore(t testing.TB, data []*traj.Trajectory, shards int) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.PutBatch(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range data[len(data)/2:] {
		if err := st.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// find returns the trajectory with the given id.
func find(data []*traj.Trajectory, id string) *traj.Trajectory {
	for _, tr := range data {
		if tr.ID == id {
			return tr
		}
	}
	panic("no trajectory " + id)
}

// searchCase is a query and the measure it runs under; its String names
// both in a failure message.
type searchCase struct {
	measure dist.Measure
	q       Query
}

func (c searchCase) String() string {
	var s string
	switch c.q.Kind {
	case KindThreshold:
		s = fmt.Sprintf("%v threshold of %s at eps %v", c.measure, c.q.Traj.ID, c.q.Eps)
	case KindTopK:
		s = fmt.Sprintf("%v top-%d of %s", c.measure, c.q.K, c.q.Traj.ID)
	case KindRange:
		s = fmt.Sprintf("range %v", c.q.Rect)
	default:
		s = fmt.Sprintf("nearest %d to %v", c.q.K, c.q.Point)
	}
	if !c.q.Window.Unbounded() {
		s += fmt.Sprintf(", window %+v", c.q.Window)
	}
	return s
}

// differentialCases are the queries of TestSearchAgainstOracle: threshold
// and top-k under each measure, range and nearest, each at its knife-edges —
// eps = 0, and eps exactly at and one ulp below adv-seg's distance from its
// twin; k = 1, k inside the tie group of "td000001", and k > N;
// rectangles and points on the plane's edges, on a stored point and beside
// the straddling shapes.
func differentialCases(stored []*traj.Trajectory, short bool) []searchCase {
	dup := find(stored, "td000001")
	queries := []*traj.Trajectory{dup, find(stored, "adv-straddle-xy")}
	if !short {
		queries = append(queries, find(stored, "lr000007"), find(stored, "adv-point"), find(stored, "adv-right"), find(stored, "td000042"))
	}
	seg, twin := find(stored, "adv-seg"), find(stored, "adv-seg-twin")
	n := len(stored)
	var cases []searchCase
	for _, m := range []dist.Measure{dist.Frechet, dist.Hausdorff, dist.DTW} {
		edge := dist.For(m)(seg.Points, twin.Points)
		for _, eps := range []float64{edge, math.Nextafter(edge, 0)} {
			cases = append(cases, searchCase{m, Query{Kind: KindThreshold, Traj: seg, Eps: eps}})
		}
		for _, q := range queries {
			for _, eps := range []float64{0, gen.DegreesToNorm(0.01)} {
				cases = append(cases, searchCase{m, Query{Kind: KindThreshold, Traj: q, Eps: eps}})
			}
			for _, k := range []int{1, 3, n + 5} {
				cases = append(cases, searchCase{m, Query{Kind: KindTopK, Traj: q, K: k}})
			}
		}
	}
	point := find(stored, "adv-point").Points[0]
	for _, r := range []geo.Rect{
		geo.World,
		find(stored, "td000005").MBR(),
		{Min: geo.Point{X: 0.5 - maxCell/2, Y: 0.5 - maxCell/2}, Max: geo.Point{X: 0.5, Y: 0.5}},
		{Min: point, Max: point},
	} {
		cases = append(cases, searchCase{dist.Frechet, Query{Kind: KindRange, Rect: r}})
	}
	for _, p := range []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 0.5, Y: 0.5}, dup.Points[0]} {
		for _, k := range []int{1, 3, n + 5} {
			cases = append(cases, searchCase{dist.Frechet, Query{Kind: KindNearest, Point: p, K: k}})
		}
	}
	return cases
}

// The seeded differential test: every query kind, threshold and top-k under
// each measure, answered exactly as the oracle answers it, with and without
// a time window, on 1 and 8 shards, before and after Compact. A failure
// names the seed and the configuration.
func TestSearchAgainstOracle(t *testing.T) {
	const seed = 1
	data := differentialData(seed)
	stored := oracle.Stored(data)
	cases := differentialCases(stored, testing.Short())
	for _, shards := range []int{1, 8} {
		st := differentialStore(t, data, shards)
		engines := map[dist.Measure]*Engine{}
		for _, m := range []dist.Measure{dist.Frechet, dist.Hausdorff, dist.DTW} {
			engines[m] = New(st, m)
		}
		for _, phase := range []string{"before Compact", "after Compact"} {
			if phase == "after Compact" {
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range cases {
				for _, w := range []TimeWindow{{}, {Start: 2 * daySecs, End: 3*daySecs - 1}} {
					if c.q.Kind == KindNearest && !w.Unbounded() {
						continue // nearest has no windowed form
					}
					q := c.q
					q.Window = w
					got, _, err := engines[c.measure].Search(bg, q, nil)
					if err != nil {
						t.Fatalf("seed %d, %d shards, %s, %s: %v", seed, shards, phase, searchCase{c.measure, q}, err)
					}
					if d := diffOracle(c.measure, stored, q, got); d != "" {
						t.Errorf("seed %d, %d shards, %s, %s: %s", seed, shards, phase, searchCase{c.measure, q}, d)
					}
				}
			}
		}
	}
}

// FuzzSearchVsOracle fuzzes the query against one small store, built once
// per fuzz process from differentialData: the kind, the measure, two points
// (the query trajectory, the range's corners, or the nearest query's
// point), eps, k and the window's bounds. Every answer must equal the
// oracle's; a query the engine rejects as invalid is skipped. The seed
// corpus holds the knife-edge cases.
func FuzzSearchVsOracle(f *testing.F) {
	data := differentialData(1)
	stored := oracle.Stored(data)
	st := differentialStore(f, data, 4)
	var engines [3]*Engine
	for m := range engines {
		engines[m] = New(st, dist.Measure(m))
	}

	dup := find(stored, "td000001").Points
	seg := find(stored, "adv-seg").Points
	edge := dist.For(dist.DTW)(seg, find(stored, "adv-seg-twin").Points)
	const day = daySecs
	for _, s := range []struct {
		kind, measure  uint8
		x0, y0, x1, y1 float64
		eps            float64
		k              uint8
		start, end     int64
	}{
		{0, 0, dup[0].X, dup[0].Y, dup[1].X, dup[1].Y, 0, 0, 0, 0},
		{0, 2, seg[0].X, seg[0].Y, seg[1].X, seg[1].Y, edge, 0, 0, 0},
		{0, 2, seg[0].X, seg[0].Y, seg[1].X, seg[1].Y, math.Nextafter(edge, 0), 0, 0, 0},
		{0, 2, 0.3, 0.7, 0.3, 0.7, 0, 0, 2 * day, 3*day - 1},
		{1, 0, dup[0].X, dup[0].Y, dup[1].X, dup[1].Y, 0, 1, 0, 0},
		{1, 1, dup[0].X, dup[0].Y, dup[0].X, dup[0].Y, 0, 3, 0, 0},
		{1, 2, 0.5 - maxCell/2, 0.5 - maxCell/2, 0.5 + maxCell/2, 0.5 + maxCell/2, 0, 255, 2 * day, 2 * day},
		{2, 0, 0, 0, 1, 1, 0, 0, 0, 0},
		{2, 0, 0, 0, 1, 1, 0, 0, day, day},
		{2, 0, 0.5 - maxCell/2, 0.5 - maxCell/2, 0.5, 0.5, 0, 0, 0, 3 * day},
		{3, 0, 0, 0, 0, 0, 0, 1, 0, 0},
		{3, 0, 1, 1, 1, 1, 0, 255, 0, 0},
		{3, 0, dup[0].X, dup[0].Y, 0, 0, 0, 3, 0, 0},
	} {
		f.Add(s.kind, s.measure, s.x0, s.y0, s.x1, s.y1, s.eps, s.k, s.start, s.end)
	}
	f.Fuzz(func(t *testing.T, kind, measure uint8, x0, y0, x1, y1, eps float64, k uint8, start, end int64) {
		a, b := geo.Point{X: x0, Y: y0}, geo.Point{X: x1, Y: y1}
		q := Query{Kind: KindThreshold + Kind(kind%4), Eps: eps, K: int(k), Window: TimeWindow{Start: start, End: end}}
		switch q.Kind {
		case KindThreshold, KindTopK:
			q.Traj = &traj.Trajectory{ID: "q", Points: []geo.Point{a, b}}
		case KindRange:
			q.Rect = geo.Rect{Min: geo.Point{X: min(x0, x1), Y: min(y0, y1)}, Max: geo.Point{X: max(x0, x1), Y: max(y0, y1)}}
		case KindNearest:
			q.Point, q.Window = a, TimeWindow{}
		}
		m := dist.Measure(measure % 3)
		got, _, err := engines[m].Search(bg, q, nil)
		if errors.Is(err, ErrInvalidQuery) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if d := diffOracle(m, stored, q, got); d != "" {
			t.Errorf("%s: %s", searchCase{m, q}, d)
		}
	})
}
