package query

import (
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

const daySecs = 86400

// newTimedFixture stores trajectories whose timestamps place each in one
// of several distinct "days", plus a few untimed ones.
func newTimedFixture(t *testing.T, n int, seed int64) *fixture {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{store: st, engine: New(st, dist.Frechet)}
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
	f.stored = oracle.Stored(f.trajs)
	return f
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
		for _, w := range windows {
			f.search(t, Query{Kind: KindThreshold, Traj: q, Eps: eps, Window: w})
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
		f.search(t, Query{Kind: KindTopK, Traj: q, K: k, Window: w})
	}
}

func TestRangeWindow(t *testing.T) {
	f := newTimedFixture(t, 100, 94)
	// Window over the whole plane, constrained to day 0: every day-0 and
	// untimed trajectory, nothing else.
	f.search(t, Query{Kind: KindRange, Rect: geo.World, Window: TimeWindow{End: daySecs - 1}})
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
// the oracle's own window rule does — for threshold, range and top-k, timed
// and untimed rows mixed.
func TestWindowEdgesMatchBruteForce(t *testing.T) {
	f := newTimedFixture(t, 150, 96)
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
			for _, q := range []Query{
				{Kind: KindThreshold, Traj: target, Eps: eps, Window: tc.w},
				{Kind: KindRange, Rect: rect, Window: tc.w},
				{Kind: KindTopK, Traj: target, K: 8, Window: tc.w},
			} {
				got, _, err := f.engine.Search(bg, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffOracle(dist.Frechet, f.stored, q, got); d != "" {
					t.Errorf("%s window %+v, kind %d: %s", target.ID, tc.w, q.Kind, d)
				}
				if q.Kind == KindThreshold && slices.ContainsFunc(got, func(r Result) bool { return r.ID == target.ID }) != tc.admits {
					t.Errorf("%s window %+v: the trajectory on the edge is in the threshold answer = %v", target.ID, tc.w, !tc.admits)
				}
			}
		}
	}
}
