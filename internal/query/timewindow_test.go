package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/traj"
)

// timedFixture stores trajectories whose timestamps place each in one of
// several distinct "days".
type timedFixture struct {
	store  *store.Store
	engine *Engine
	trajs  []*traj.Trajectory
}

const daySecs = 86400

func newTimedFixture(t *testing.T, n int, seed int64) *timedFixture {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(seed))
	f := &timedFixture{store: st, engine: New(st, dist.Frechet)}
	for i := 0; i < n; i++ {
		base := walk(rng, fmt.Sprintf("t%04d", i), 5+rng.Intn(20), 0.01)
		day := int64(i % 5) // five distinct days
		times := make([]int64, base.Len())
		start := day*daySecs + int64(rng.Intn(daySecs/2))
		for j := range times {
			times[j] = start + int64(j*10)
		}
		tr := traj.NewTimed(base.ID, base.Points, times)
		f.trajs = append(f.trajs, tr)
		if err := st.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Plus a few untimed trajectories, which must match every window.
	for i := 0; i < n/10; i++ {
		tr := walk(rng, fmt.Sprintf("u%04d", i), 5+rng.Intn(20), 0.01)
		f.trajs = append(f.trajs, tr)
		if err := st.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *timedFixture) bruteThresholdWindow(q *traj.Trajectory, eps float64, w TimeWindow) map[string]bool {
	out := map[string]bool{}
	for _, tr := range f.trajs {
		rec := &traj.Record{ID: tr.ID, Points: tr.Points, Times: tr.Times}
		if !w.admits(rec.TimeBounds()) {
			continue
		}
		if dist.DiscreteFrechet(q.Points, tr.Points) <= eps {
			out[tr.ID] = true
		}
	}
	return out
}

func TestThresholdWindowMatchesBruteForce(t *testing.T) {
	f := newTimedFixture(t, 200, 90)
	rng := rand.New(rand.NewSource(91))
	windows := []TimeWindow{
		{},                                     // unbounded
		{Start: 1 * daySecs, End: 2 * daySecs}, // days 1-2
		{Start: 4 * daySecs},                   // day 4 onward
		{End: 1 * daySecs},                     // up to day 1
		{Start: 100 * daySecs, End: 200 * daySecs}, // empty window
	}
	for qi := 0; qi < 4; qi++ {
		q := f.trajs[rng.Intn(len(f.trajs))]
		eps := 0.02 / 360 * 20
		for wi, w := range windows {
			got, _, err := f.engine.Search(bg, Query{Kind: KindThreshold, Traj: q, Eps: eps, Window: w}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := f.bruteThresholdWindow(q, eps, w)
			if len(got) != len(want) {
				t.Fatalf("query %d window %d: got %d, want %d", qi, wi, len(got), len(want))
			}
			for _, r := range got {
				if !want[r.ID] {
					t.Fatalf("query %d window %d: unexpected %s", qi, wi, r.ID)
				}
			}
		}
	}
}

func TestTopKWindowMatchesBruteForce(t *testing.T) {
	f := newTimedFixture(t, 150, 92)
	rng := rand.New(rand.NewSource(93))
	w := TimeWindow{Start: 2 * daySecs, End: 3*daySecs - 1}
	for qi := 0; qi < 3; qi++ {
		q := f.trajs[rng.Intn(len(f.trajs))]
		k := 5 + qi*5
		got, _, err := f.engine.Search(bg, Query{Kind: KindTopK, Traj: q, K: k, Window: w}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force among admitted trajectories.
		var ds []float64
		for _, tr := range f.trajs {
			rec := &traj.Record{ID: tr.ID, Points: tr.Points, Times: tr.Times}
			if !w.admits(rec.TimeBounds()) {
				continue
			}
			ds = append(ds, dist.DiscreteFrechet(q.Points, tr.Points))
		}
		sort.Float64s(ds)
		if len(ds) > k {
			ds = ds[:k]
		}
		if len(got) != len(ds) {
			t.Fatalf("query %d: got %d results, want %d", qi, len(got), len(ds))
		}
		for i := range got {
			if math.Abs(got[i].Distance-ds[i]) > 1e-6 {
				t.Fatalf("query %d rank %d: %v want %v", qi, i, got[i].Distance, ds[i])
			}
		}
	}
}

func TestRangeWindow(t *testing.T) {
	f := newTimedFixture(t, 100, 94)
	// Window over the whole plane, constrained to day 0: every day-0 and
	// untimed trajectory, nothing else.
	got, _, err := f.engine.Search(bg, Query{Kind: KindRange, Rect: geo.World, Window: TimeWindow{End: daySecs - 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tr := range f.trajs {
		rec := &traj.Record{ID: tr.ID, Points: tr.Points, Times: tr.Times}
		if (TimeWindow{End: daySecs - 1}).admits(rec.TimeBounds()) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("got %d, want %d", len(got), want)
	}
}

func TestTimeWindowSemantics(t *testing.T) {
	rec := func(times ...int64) *traj.Record {
		pts := make([]geo.Point, len(times))
		return &traj.Record{ID: "r", Points: pts, Times: times}
	}
	cases := []struct {
		w     TimeWindow
		rec   *traj.Record
		admit bool
	}{
		{TimeWindow{}, rec(5, 10), true},                                                          // unbounded
		{TimeWindow{Start: 6}, rec(5, 10), true},                                                  // overlaps right
		{TimeWindow{Start: 11}, rec(5, 10), false},                                                // entirely before
		{TimeWindow{End: 4}, rec(5, 10), false},                                                   // entirely after
		{TimeWindow{Start: 1, End: 5}, rec(5, 10), true},                                          // touches start
		{TimeWindow{Start: 1, End: 4}, rec(5, 10), false},                                         // disjoint
		{TimeWindow{Start: 1, End: 4}, &traj.Record{ID: "u", Points: make([]geo.Point, 2)}, true}, // untimed
	}
	for i, tc := range cases {
		if got := tc.w.admits(tc.rec.TimeBounds()); got != tc.admit {
			t.Errorf("case %d: admits = %v, want %v", i, got, tc.admit)
		}
	}
}

// The pushed-down time check reads a row's timestamp range in one pass over
// its stored bytes. Windows whose edges sit exactly on, and one second off, a
// stored trajectory's first and last timestamp must admit and exclude it as
// brute force over the decoded rows does — for threshold, range and top-k,
// timed and untimed rows mixed.
func TestWindowEdgesMatchBruteForce(t *testing.T) {
	f := newTimedFixture(t, 150, 96)
	recs, _ := storedTable(t, f.store)
	for _, ti := range []int{1, 7, 13} { // days 1-3: no timestamp is 0, which would read as unbounded
		target := f.trajs[ti]
		tmin, tmax, _ := target.TimeBounds()
		const eps = 0.02 / 360 * 20
		rect := target.MBR()
		for _, tc := range []struct {
			w      TimeWindow
			admits bool
		}{
			{TimeWindow{Start: tmax}, true},
			{TimeWindow{Start: tmax + 1}, false},
			{TimeWindow{End: tmin}, true},
			{TimeWindow{End: tmin - 1}, false},
			{TimeWindow{Start: tmax, End: tmax}, true},
			{TimeWindow{Start: tmin, End: tmin}, true},
			{TimeWindow{Start: tmin + 1, End: tmax - 1}, true},
		} {
			name := fmt.Sprintf("%s window %+v", target.ID, tc.w)
			wantIDs := func(match func(*traj.Record) bool) []string {
				var ids []string
				for _, rec := range recs {
					if tc.w.admits(rec.TimeBounds()) && match(rec) {
						ids = append(ids, rec.ID)
					}
				}
				sort.Strings(ids)
				return ids
			}
			gotIDs := func(q Query) []string {
				rs, _, err := f.engine.Search(bg, q, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ids := make([]string, len(rs))
				for i, r := range rs {
					ids[i] = r.ID
				}
				sort.Strings(ids)
				return ids
			}

			got := gotIDs(Query{Kind: KindThreshold, Traj: target, Eps: eps, Window: tc.w})
			want := wantIDs(func(rec *traj.Record) bool { return dist.DiscreteFrechet(target.Points, rec.Points) <= eps })
			if !slices.Equal(got, want) {
				t.Errorf("%s threshold: got %v, want %v", name, got, want)
			}
			if slices.Contains(got, target.ID) != tc.admits {
				t.Errorf("%s threshold: the trajectory on the edge is in the answer = %v", name, !tc.admits)
			}

			got = gotIDs(Query{Kind: KindRange, Rect: rect, Window: tc.w})
			want = wantIDs(func(rec *traj.Record) bool { return slices.ContainsFunc(rec.Points, rect.ContainsPoint) })
			if !slices.Equal(got, want) {
				t.Errorf("%s range: got %v, want %v", name, got, want)
			}

			top, _, err := f.engine.Search(bg, Query{Kind: KindTopK, Traj: target, K: 8, Window: tc.w}, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if wantTop := bruteTopKStored(recs, target, 8, dist.Frechet, tc.w); !reflect.DeepEqual(top, wantTop) {
				t.Errorf("%s top-k: differs from brute force at rank %d", name, firstDiff(top, wantTop))
			}
		}
	}
}
