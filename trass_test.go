package trass

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/store"
)

// withStore sets store.Config fields that no public option exposes.
func withStore(set func(*store.Config)) Option {
	return func(sc *store.Config, _ *config) { set(sc) }
}

func openTestDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := openTestDB(t)
	data := gen.TDrive(gen.TDriveOptions{Seed: 1, N: 300})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if db.Count() != 300 {
		t.Fatalf("count = %d", db.Count())
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	q := data[42]
	eps := gen.DegreesToNorm(0.01)

	matches, stats, err := db.ThresholdSearchContext(context.Background(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	// The query itself is stored, so there is at least one match at 0.
	foundSelf := false
	for _, m := range matches {
		if m.ID == q.ID {
			foundSelf = true
			if m.Distance > 1e-7 {
				t.Fatalf("self distance %v", m.Distance)
			}
		}
	}
	if !foundSelf {
		t.Fatal("query trajectory not found by its own threshold search")
	}
	if stats.Results != len(matches) {
		t.Fatal("stats mismatch")
	}

	top, err := db.TopKSearch(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("top-k returned %d", len(top))
	}
	if top[0].ID != q.ID || top[0].Distance > 1e-7 {
		t.Fatalf("nearest must be the query itself, got %+v", top[0])
	}
	if !sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Distance < top[j].Distance }) {
		t.Fatal("top-k not ascending")
	}
}

func TestThresholdMatchesBruteOnPublicAPI(t *testing.T) {
	for _, m := range []Measure{Frechet, Hausdorff, DTW} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			db := openTestDB(t, WithMeasure(m), WithShards(4))
			data := gen.TDrive(gen.TDriveOptions{Seed: 2, N: 200})
			if err := db.PutBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[7]
			eps := gen.DegreesToNorm(0.02)
			if m == DTW {
				eps *= 20
			}
			got, err := db.ThresholdSearch(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			fn := dist.For(m)
			want := 0
			for _, tr := range data {
				if fn(q.Points, tr.Points) <= eps {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("measure %v: got %d, want %d", m, len(got), want)
			}
		})
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir must fail")
	}
	if _, err := Open(t.TempDir(), WithMaxResolution(99)); err == nil {
		t.Fatal("bad resolution must fail")
	}
	db := openTestDB(t)
	q := NewTrajectory("q", []Point{{X: 0.5, Y: 0.5}})
	if _, err := db.ThresholdSearch(q, -1); err == nil {
		t.Fatal("negative threshold must fail")
	}
}

func TestLonLatHelpers(t *testing.T) {
	p := NormalizeLonLat(116.4, 39.9)
	lon, lat := DenormalizeLonLat(p)
	if math.Abs(lon-116.4) > 1e-9 || math.Abs(lat-39.9) > 1e-9 {
		t.Fatalf("round trip: %v %v", lon, lat)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := gen.TDrive(gen.TDriveOptions{Seed: 3, N: 50})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Rows persist in the KV substrate across restarts; a top-k for a stored
	// trajectory must find it at distance 0.
	top, err := db2.TopKSearch(data[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].ID != data[0].ID || top[0].Distance > 1e-7 {
		t.Fatalf("after reopen: %+v", top)
	}
}

func TestRangeSearchPublicAPI(t *testing.T) {
	db := openTestDB(t)
	data := gen.TDrive(gen.TDriveOptions{Seed: 9, N: 200})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	// A window around a stored trajectory's first point must find it.
	p := data[17].Points[0]
	window := Rect{
		Min: Point{X: p.X - 1e-6, Y: p.Y - 1e-6},
		Max: Point{X: p.X + 1e-6, Y: p.Y + 1e-6},
	}
	matches, err := db.RangeSearch(window)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.ID == data[17].ID {
			found = true
		}
		// Every match genuinely has a point in the window.
		hit := false
		for _, pt := range m.Points {
			if window.ContainsPoint(pt) {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("match %s has no point in the window", m.ID)
		}
	}
	if !found {
		t.Fatal("anchor trajectory not found by range search")
	}
}

func TestCompactAndOptions(t *testing.T) {
	db := openTestDB(t,
		withStore(func(sc *store.Config) { sc.DPTolerance = gen.DegreesToNorm(0.005); sc.Parallelism = 2 }),
		WithShards(2),
		WithMaxResolution(14),
	)
	data := gen.TDrive(gen.TDriveOptions{Seed: 10, N: 100})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// Queries still exact after compaction.
	top, err := db.TopKSearch(data[3], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].ID != data[3].ID {
		t.Fatalf("post-compaction top-1: %+v", top)
	}
}

// The refinement pool defaults to the store's Parallelism. Its size must change
// only wall-clock, never results, and QueryStats must report it.
func TestRefineParallelismOption(t *testing.T) {
	data := gen.TDrive(gen.TDriveOptions{Seed: 11, N: 200})
	q := data[7]
	var baseline []Match
	for i, workers := range []int{1, 4} {
		db := openTestDB(t, WithShards(2), withStore(func(sc *store.Config) { sc.Parallelism = workers }))
		if err := db.PutBatch(data); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		ms, stats, err := db.ThresholdSearchContext(context.Background(), q, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 {
			t.Fatal("query must match at least itself")
		}
		if stats.Refined > 0 && stats.RefineWorkers < 1 {
			t.Fatalf("RefineWorkers = %d after refining %d candidates", stats.RefineWorkers, stats.Refined)
		}
		if workers == 1 && stats.RefineWorkers > 1 {
			t.Fatalf("RefineWorkers = %d with Parallelism 1", stats.RefineWorkers)
		}
		if i == 0 {
			baseline = ms
		} else if !reflect.DeepEqual(baseline, ms) {
			t.Fatalf("results differ between 1 and %d refinement workers", workers)
		}
	}
}

func TestRandomizedPublicAPIAgainstBrute(t *testing.T) {
	db := openTestDB(t, WithShards(2))
	rng := rand.New(rand.NewSource(4))
	data := gen.Lorry(gen.LorryOptions{Seed: 4, N: 150})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	fn := dist.For(Frechet)
	for i := 0; i < 3; i++ {
		q := data[rng.Intn(len(data))]
		k := 1 + rng.Intn(20)
		got, err := db.TopKSearch(q, k)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]float64, len(data))
		for j, tr := range data {
			ds[j] = fn(q.Points, tr.Points)
		}
		sort.Float64s(ds)
		for j := range got {
			if math.Abs(got[j].Distance-ds[j]) > 1e-6 {
				t.Fatalf("rank %d: %v want %v", j, got[j].Distance, ds[j])
			}
		}
	}
}

// A directory reopened with an explicit shape other than the one it records
// fails Open, naming both, instead of serving wrong or partial answers: fewer
// shards would leave the upper shards unscanned, more would route ids to
// shards that do not hold them, and any other resolution decodes the stored
// index values into other index spaces.
func TestReopenWithDifferentShapeFails(t *testing.T) {
	for name, tc := range map[string]struct {
		written, reopened Option
		names             string
	}{
		"fewer shards":       {WithShards(8), WithShards(4), "created with Shards=8 and cannot be opened with Shards=4"},
		"more shards":        {WithShards(4), WithShards(8), "created with Shards=4 and cannot be opened with Shards=8"},
		"smaller resolution": {WithMaxResolution(16), WithMaxResolution(12), "created with MaxResolution=16 and cannot be opened with MaxResolution=12"},
		"larger resolution":  {WithMaxResolution(12), WithMaxResolution(16), "created with MaxResolution=12 and cannot be opened with MaxResolution=16"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, tc.written)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.PutBatch(gen.TDrive(gen.TDriveOptions{Seed: 5, N: 50})); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err := Open(dir, tc.reopened); err == nil {
				db.Close()
				t.Fatal("reopen with a different shape succeeded")
			} else if !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("error does not name the recorded and the requested value (%s): %v", tc.names, err)
			}
			db, err = Open(dir, tc.written)
			if err != nil {
				t.Fatalf("reopen with the written shape: %v", err)
			}
			defer db.Close()
			if db.Count() != 50 {
				t.Fatalf("Count = %d after the refused reopen, want 50", db.Count())
			}
		})
	}
}

// A directory reopened with no shape option is served at the shape it
// records, not at the defaults: written at 4 shards and resolution 12, top-k
// equals brute force and every id is found.
func TestReopenAdoptsRecordedShape(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithShards(4), WithMaxResolution(12))
	if err != nil {
		t.Fatal(err)
	}
	data := gen.TDrive(gen.TDriveOptions{Seed: 9, N: 200})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen with no shape option: %v", err)
	}
	defer db.Close()
	for _, tr := range data {
		if got, err := db.Get(tr.ID); err != nil || got.Len() != tr.Len() {
			t.Fatalf("Get(%s) after reopen: %v, %v", tr.ID, got, err)
		}
	}
	fn := dist.For(Frechet)
	for _, q := range []*Trajectory{data[0], data[77], data[199]} {
		got, err := db.TopKSearch(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]float64, len(data))
		for j, tr := range data {
			ds[j] = fn(q.Points, tr.Points)
		}
		sort.Float64s(ds)
		if len(got) != 5 || got[0].ID != q.ID {
			t.Fatalf("top-5 of %s returned %d matches, want 5 led by the query's own row", q.ID, len(got))
		}
		for j := range got {
			if math.Abs(got[j].Distance-ds[j]) > 1e-6 {
				t.Fatalf("query %s rank %d: distance %v, brute force %v", q.ID, j, got[j].Distance, ds[j])
			}
		}
	}
}

func TestGetByID(t *testing.T) {
	db := openTestDB(t)
	data := gen.TDrive(gen.TDriveOptions{Seed: 11, N: 100})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	got, err := db.Get(data[42].ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != data[42].ID || got.Len() != data[42].Len() {
		t.Fatalf("Get returned %v", got)
	}
	if _, err := db.Get("no-such-id"); err != ErrNotFound {
		t.Fatalf("missing id: %v", err)
	}
	// Also works after flush + reopen (persisted index).
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(data[7].ID); err != nil {
		t.Fatalf("after flush: %v", err)
	}
}

func TestDurabilityAndContextOptions(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithSyncWrites())
	if err != nil {
		t.Fatal(err)
	}
	data := gen.TDrive(gen.TDriveOptions{Seed: 7, N: 60})
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	q := data[10]
	eps := gen.DegreesToNorm(0.01)

	matches, _, err := db.ThresholdSearchContext(context.Background(), q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches for the stored query itself")
	}
	if _, _, err := db.TopKSearchContext(context.Background(), q, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.RangeSearchContext(context.Background(), q.MBR()); err != nil {
		t.Fatal(err)
	}

	// A cancelled context must surface its error, not partial results.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.ThresholdSearchContext(ctx, q, eps); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want context.Canceled", err)
	}

	// SyncWrites means everything acknowledged is on disk without a Flush:
	// reopen (same dir) and the data must be back.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Count() != 60 {
		t.Fatalf("reopened count = %d, want 60", db2.Count())
	}
	got, err := db2.Get(q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != q.ID {
		t.Fatalf("got id %q", got.ID)
	}
}

// Every kept search method is Search on a fixed Query shape: for each kind,
// with and without a time window, collected and through a sink, the wrappers
// return exactly what Search returns.
func TestSearchMatchesWrappers(t *testing.T) {
	db := openTestDB(t, WithShards(2))
	data := gen.TDrive(gen.TDriveOptions{Seed: 21, N: 200})
	for i, tr := range data {
		// Timestamp every other trajectory so a window both admits and
		// rejects stored rows (untimed ones always pass).
		if i%2 == 0 {
			tr.Times = make([]int64, len(tr.Points))
			for j := range tr.Times {
				tr.Times[j] = int64(1000*i + j)
			}
		}
	}
	if err := db.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := data[7]
	eps := gen.DegreesToNorm(0.5)
	rect := Rect{Min: Point{X: 0.2, Y: 0.2}, Max: Point{X: 0.9, Y: 0.9}}
	pt := q.Points[0]
	w := TimeWindow{Start: 1, End: 50_000}

	type collect func() ([]Match, error)
	type stream func(fn func(Match) error) error
	withStats := func(f func() ([]Match, *QueryStats, error)) collect {
		return func() ([]Match, error) {
			ms, st, err := f()
			if err == nil && st.Results != len(ms) {
				t.Errorf("stats report %d results beside %d matches", st.Results, len(ms))
			}
			return ms, err
		}
	}
	cases := []struct {
		name    string
		query   Query
		ordered bool // a sink sees the collected sequence, not just the same set
		collect []collect
		stream  []stream
	}{
		{"threshold", Query{Kind: KindThreshold, Traj: q, Eps: eps}, false,
			[]collect{
				func() ([]Match, error) { return db.ThresholdSearch(q, eps) },
				withStats(func() ([]Match, *QueryStats, error) { return db.ThresholdSearchContext(ctx, q, eps) }),
				withStats(func() ([]Match, *QueryStats, error) {
					return db.ThresholdSearchWindowContext(ctx, q, eps, TimeWindow{})
				}),
			},
			[]stream{func(fn func(Match) error) error {
				_, err := db.ThresholdSearchWindowFunc(ctx, q, eps, TimeWindow{}, fn)
				return err
			}}},
		{"threshold/window", Query{Kind: KindThreshold, Traj: q, Eps: eps, Window: w}, false,
			[]collect{withStats(func() ([]Match, *QueryStats, error) { return db.ThresholdSearchWindowContext(ctx, q, eps, w) })},
			[]stream{func(fn func(Match) error) error {
				_, err := db.ThresholdSearchWindowFunc(ctx, q, eps, w, fn)
				return err
			}}},
		{"topk", Query{Kind: KindTopK, Traj: q, K: 20}, true,
			[]collect{
				func() ([]Match, error) { return db.TopKSearch(q, 20) },
				withStats(func() ([]Match, *QueryStats, error) { return db.TopKSearchContext(ctx, q, 20) }),
				withStats(func() ([]Match, *QueryStats, error) { return db.TopKSearchWindowContext(ctx, q, 20, TimeWindow{}) }),
			}, nil},
		{"topk/window", Query{Kind: KindTopK, Traj: q, K: 20, Window: w}, true,
			[]collect{withStats(func() ([]Match, *QueryStats, error) { return db.TopKSearchWindowContext(ctx, q, 20, w) })}, nil},
		{"range", Query{Kind: KindRange, Rect: rect}, false,
			[]collect{
				func() ([]Match, error) { return db.RangeSearch(rect) },
				withStats(func() ([]Match, *QueryStats, error) { return db.RangeSearchContext(ctx, rect) }),
				withStats(func() ([]Match, *QueryStats, error) { return db.RangeSearchWindowContext(ctx, rect, TimeWindow{}) }),
			},
			[]stream{
				func(fn func(Match) error) error { _, err := db.RangeSearchFunc(ctx, rect, fn); return err },
				func(fn func(Match) error) error {
					_, err := db.RangeSearchWindowFunc(ctx, rect, TimeWindow{}, fn)
					return err
				},
			}},
		{"range/window", Query{Kind: KindRange, Rect: rect, Window: w}, false,
			[]collect{withStats(func() ([]Match, *QueryStats, error) { return db.RangeSearchWindowContext(ctx, rect, w) })},
			[]stream{func(fn func(Match) error) error { _, err := db.RangeSearchWindowFunc(ctx, rect, w, fn); return err }}},
		// KindNearest has no windowed form; TestSearchRejectsInvalid pins that.
		{"nearest", Query{Kind: KindNearest, Point: pt, K: 20}, true,
			[]collect{
				func() ([]Match, error) { return db.NearestSearch(pt, 20) },
				withStats(func() ([]Match, *QueryStats, error) { return db.NearestSearchContext(ctx, pt, 20) }),
			}, nil},
	}
	byID := func(ms []Match) []Match {
		out := append([]Match(nil), ms...)
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	answers := map[string][]Match{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := db.Search(ctx, tc.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("query matches nothing; the comparison is vacuous")
			}
			answers[tc.name] = want
			for i, c := range tc.collect {
				got, err := c()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("collecting wrapper %d returned %d matches, Search %d, or in another order", i, len(got), len(want))
				}
			}
			sameStream := func(label string, got []Match) {
				if !tc.ordered {
					got, want = byID(got), byID(want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s delivered %d matches, Search collected %d, or in another order", label, len(got), len(want))
				}
			}
			var viaSink []Match
			ms, st, err := db.Search(ctx, tc.query, func(m Match) error { viaSink = append(viaSink, m); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if ms != nil || st.Results != len(viaSink) {
				t.Errorf("Search with a sink returned %d matches and counted %d beside %d delivered", len(ms), st.Results, len(viaSink))
			}
			sameStream("Search sink", viaSink)
			for i, s := range tc.stream {
				var got []Match
				if err := s(func(m Match) error { got = append(got, m); return nil }); err != nil {
					t.Fatal(err)
				}
				sameStream(fmt.Sprintf("streaming wrapper %d", i), got)
			}
		})
	}
	for _, kind := range []string{"threshold", "topk", "range"} {
		if reflect.DeepEqual(answers[kind], answers[kind+"/window"]) {
			t.Errorf("%s: the window changed nothing among %d matches; it must reject some", kind, len(answers[kind]))
		}
	}
	// A timed trajectory read back with Get and re-put stays timed — untimed,
	// it would start matching every window.
	var timed string
	inWindow := map[string]bool{}
	for _, m := range answers["range/window"] {
		inWindow[m.ID] = true
	}
	for _, m := range answers["range"] {
		if !inWindow[m.ID] {
			timed = m.ID // in rect, rejected by w: timed
		}
	}
	got, err := db.Get(timed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Times) != len(got.Points) {
		t.Fatalf("Get(%s) returned %d timestamps for %d points", timed, len(got.Times), len(got.Points))
	}
	if err := db.Put(got); err != nil {
		t.Fatal(err)
	}
	if again, err := db.Get(timed); err != nil || !reflect.DeepEqual(again, got) {
		t.Errorf("Put(Get(%s)) did not round-trip: %v", timed, err)
	}
	if ms, _, err := db.RangeSearchWindowContext(ctx, rect, w); err != nil || !reflect.DeepEqual(byID(ms), byID(answers["range/window"])) {
		t.Errorf("re-putting what Get returned changed the windowed answer (%d matches, was %d): %v", len(ms), len(answers["range/window"]), err)
	}
	// Every path above pinned one snapshot per query; none may still hold it.
	st, err := db.StorageStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.KV.PinnedSnapshots != 0 {
		t.Errorf("%d snapshots still pinned after every query returned: a search path leaked its snapshot", st.KV.PinnedSnapshots)
	}
}

// Search rejects a malformed Query with ErrInvalidQuery before touching the
// store. NaN is the regression: `eps < 0` is false for it, so it used to run
// and silently match nothing.
func TestSearchRejectsInvalid(t *testing.T) {
	db := openTestDB(t)
	q := NewTrajectory("q", []Point{{X: 0.5, Y: 0.5}})
	if err := db.Put(q); err != nil {
		t.Fatal(err)
	}
	for name, query := range map[string]Query{
		"negative eps":         {Kind: KindThreshold, Traj: q, Eps: -1},
		"NaN eps":              {Kind: KindThreshold, Traj: q, Eps: math.NaN()},
		"threshold nil traj":   {Kind: KindThreshold, Eps: 0.01},
		"threshold no points":  {Kind: KindThreshold, Traj: &Trajectory{ID: "e"}, Eps: 0.01},
		"topk nil traj":        {Kind: KindTopK, K: 3},
		"topk no points":       {Kind: KindTopK, Traj: &Trajectory{ID: "e"}, K: 3},
		"zero kind":            {Traj: q, Eps: 0.01},
		"unknown kind":         {Kind: KindNearest + 1, Traj: q, Eps: 0.01},
		"nearest with window":  {Kind: KindNearest, Point: q.Points[0], K: 3, Window: TimeWindow{End: 10}},
		"inverted window":      {Kind: KindRange, Rect: Rect{Max: Point{X: 1, Y: 1}}, Window: TimeWindow{Start: 800, End: 200}},
		"topk inverted window": {Kind: KindTopK, Traj: q, K: 3, Window: TimeWindow{Start: 800, End: 200}},
		"threshold NaN coord":  {Kind: KindThreshold, Traj: &Trajectory{ID: "n", Points: []Point{{X: 0.5, Y: 0.5}, {X: math.NaN(), Y: 0.5}}}, Eps: 0.01},
		"topk +Inf coord":      {Kind: KindTopK, Traj: &Trajectory{ID: "i", Points: []Point{{X: 0.5, Y: math.Inf(1)}}}, K: 3},
		"topk out of plane":    {Kind: KindTopK, Traj: &Trajectory{ID: "o", Points: []Point{{X: 1.5, Y: 0.5}}}, K: 3},
		"range -Inf rect":      {Kind: KindRange, Rect: Rect{Min: Point{X: math.Inf(-1), Y: 0}, Max: Point{X: 1, Y: 1}}},
		"range out of plane":   {Kind: KindRange, Rect: Rect{Min: Point{X: 0.2, Y: 0.2}, Max: Point{X: 0.4, Y: 1.01}}},
		"range inverted rect":  {Kind: KindRange, Rect: Rect{Min: Point{X: 0.2, Y: 0.6}, Max: Point{X: 0.4, Y: 0.4}}},
		"nearest NaN point":    {Kind: KindNearest, Point: Point{X: math.NaN(), Y: 0.5}, K: 3},
		"nearest out of plane": {Kind: KindNearest, Point: Point{X: -0.001, Y: 0.5}, K: 3},
	} {
		ms, st, err := db.Search(context.Background(), query, nil)
		if !errors.Is(err, ErrInvalidQuery) || ms != nil || st != nil {
			t.Errorf("%s: got (%v, %v, %v), want an ErrInvalidQuery alone", name, ms, st, err)
		}
	}
	if _, err := db.ThresholdSearch(q, math.NaN()); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("ThresholdSearch(NaN) = %v, want ErrInvalidQuery", err)
	}
	if ms, err := db.ThresholdSearch(q, 0); err != nil || len(ms) != 1 {
		t.Errorf("eps = 0 is valid and must match the stored copy: %v %v", ms, err)
	}
	for _, w := range []TimeWindow{{Start: 800}, {End: 200}} {
		if _, _, err := db.Search(context.Background(), Query{Kind: KindRange, Rect: Rect{Max: Point{X: 1, Y: 1}}, Window: w}, nil); err != nil {
			t.Errorf("one-sided window %+v is valid: %v", w, err)
		}
	}
}

// methodNames lists v's exported methods, sorted by name: the search entries
// (those returning matches and/or per-query statistics) when search is true,
// every other method when it is false.
func methodNames(v any, search bool) []string {
	var names []string
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		isSearch := false
		for j := 0; j < m.Type.NumOut(); j++ {
			if out := m.Type.Out(j); out == reflect.TypeOf([]Match(nil)) || out == reflect.TypeOf((*QueryStats)(nil)) {
				isSearch = true
				break
			}
		}
		if isSearch == search {
			names = append(names, m.Name)
		}
	}
	return names // reflect lists methods sorted by name
}

// The search surface is Search plus fixed-shape calls of it. The lists are
// exact so the {kind} x {Stats, Context, Func} x {window} cross-product cannot
// quietly regrow: a new search method has to be added here on purpose.
func TestSearchSurfacePinned(t *testing.T) {
	wantDB := []string{
		"NearestSearch", "NearestSearchContext",
		"RangeSearch", "RangeSearchContext", "RangeSearchFunc",
		"RangeSearchWindowContext", "RangeSearchWindowFunc",
		"Search",
		"ThresholdSearch", "ThresholdSearchContext",
		"ThresholdSearchWindowContext", "ThresholdSearchWindowFunc",
		"TopKSearch", "TopKSearchContext", "TopKSearchWindowContext",
	}
	if got := methodNames(&DB{}, true); !reflect.DeepEqual(got, wantDB) {
		t.Errorf("*trass.DB search methods:\n got %v\nwant %v", got, wantDB)
	}
	wantEngine := []string{"RangeContext", "Search", "ThresholdContext", "TopKContext"}
	if got := methodNames(&query.Engine{}, true); !reflect.DeepEqual(got, wantEngine) {
		t.Errorf("*query.Engine search methods:\n got %v\nwant %v", got, wantEngine)
	}
}

// exportedNames lists the exported names declared at the top level of the Go
// file at path, sorted: types, values and functions by name, methods as
// "Recv.Name".
func exportedNames(t *testing.T, path string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			names = append(names, name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						names = append(names, spec.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// The configuration surface is exact too: four Open options, one engine knob
// besides the searches (the ablation switches), and an R-tree that is built by
// Insert and read by Search. Everything else a test or a figure needs is a
// store.Config field or an unexported field.
func TestConfigSurfacePinned(t *testing.T) {
	var options []string
	for _, name := range exportedNames(t, "trass.go") {
		if strings.HasPrefix(name, "With") {
			options = append(options, name)
		}
	}
	wantOptions := []string{"WithMaxResolution", "WithMeasure", "WithShards", "WithSyncWrites"}
	if !reflect.DeepEqual(options, wantOptions) {
		t.Errorf("trass.go options:\n got %v\nwant %v", options, wantOptions)
	}
	wantEngine := []string{"SetTuning"}
	if got := methodNames(&query.Engine{}, false); !reflect.DeepEqual(got, wantEngine) {
		t.Errorf("*query.Engine non-search methods:\n got %v\nwant %v", got, wantEngine)
	}
	wantRtree := []string{"Item", "New", "Tree", "Tree.Insert", "Tree.Len", "Tree.Search"}
	if got := exportedNames(t, "internal/rtree/rtree.go"); !reflect.DeepEqual(got, wantRtree) {
		t.Errorf("internal/rtree exports:\n got %v\nwant %v", got, wantRtree)
	}
}
