package store_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
)

// segment is a short horizontal trajectory of n points starting at (x, y).
func segment(id string, x, y float64, n int) *traj.Trajectory {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: x + float64(i)*0.002, Y: y}
	}
	return traj.New(id, pts)
}

// reputStore opens a two-shard store holding 40 fixed trajectories in the
// square [0.2, 0.3]², away from every shape a test moves an id between.
func reputStore(t *testing.T) (*store.Store, []*traj.Trajectory) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var fixed []*traj.Trajectory
	for i := 0; i < 40; i++ {
		fixed = append(fixed, segment(fmt.Sprintf("f%02d", i), 0.2+float64(i%8)*0.01, 0.2+float64(i/8)*0.02, 6))
	}
	if err := st.PutBatch(fixed); err != nil {
		t.Fatal(err)
	}
	return st, fixed
}

// everyIDOnce fails unless ms holds each of ids exactly once and nothing else.
func everyIDOnce(t *testing.T, what string, ms []query.Result, ids []string) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range ms {
		seen[m.ID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Fatalf("%s: %q appears %d times in %d matches", what, id, seen[id], len(ms))
		}
	}
	if len(ms) != len(ids) {
		t.Fatalf("%s: %d matches for %d ids", what, len(ms), len(ids))
	}
}

// A snapshot pinned between a re-put's commit and the metadata update that
// follows it still holds the moved id for the best-first searches, whose
// pruning skips every index space the snapshot's value set lacks: the re-put
// moves x to an index value no other trajectory holds, so a value set that
// learned of it only after the commit would lose x from the answer although
// every state of the store holds it.
func TestSnapshotMidPutKeepsMovedID(t *testing.T) {
	st, fixed := reputStore(t)
	from, to := segment("x", 0.8, 0.8, 8), segment("x", 0.55, 0.05, 30)
	ix := st.Index()
	for _, f := range fixed {
		if v := ix.Assign(f.Points).Value; v == ix.Assign(to.Points).Value || v == ix.Assign(from.Points).Value {
			t.Fatalf("fixture: %s shares an index value with x", f.ID)
		}
	}
	if err := st.Put(from); err != nil {
		t.Fatal(err)
	}
	ids := []string{"x"}
	for _, f := range fixed {
		ids = append(ids, f.ID)
	}

	eng := query.New(st, dist.Frechet)
	k := len(ids) + 5
	var nearest, topk []query.Result
	var errN, errK error
	st.SetCommitHook(func() {
		nearest, _, errN = eng.Search(context.Background(), query.Query{Kind: query.KindNearest, Point: to.Points[0], K: k}, nil)
		topk, _, errK = eng.Search(context.Background(), query.Query{Kind: query.KindTopK, Traj: to, K: k}, nil)
	})
	err := st.Put(to)
	st.SetCommitHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if errN != nil || errK != nil {
		t.Fatal(errN, errK)
	}
	everyIDOnce(t, "nearest mid-put", nearest, ids)
	everyIDOnce(t, "top-k mid-put", topk, ids)
}

// Writers re-put ids back and forth between far-apart shapes — across index
// values no other trajectory holds, in both shards — while nearest and top-k
// searches with k above the store's size run beside them. Every id is stored
// throughout, so every answer holds each id exactly once.
func TestReputBesideSearch(t *testing.T) {
	st, fixed := reputStore(t)
	var movers [][2]*traj.Trajectory
	shards := map[byte]bool{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("m%d", i)
		a := segment(id, 0.6+float64(i)*0.08, 0.8, 8)
		b := segment(id, 0.05+float64(i)*0.1, 0.6, 25)
		movers = append(movers, [2]*traj.Trajectory{a, b})
		shards[st.RowKey(st.Index().Assign(a.Points), id)[0]] = true
		if err := st.Put(a); err != nil {
			t.Fatal(err)
		}
	}
	if len(shards) != 2 {
		t.Fatalf("fixture: the movers occupy %d of 2 shards", len(shards))
	}
	var ids []string
	for _, f := range fixed {
		ids = append(ids, f.ID)
	}
	for _, m := range movers {
		ids = append(ids, m[0].ID)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, len(movers))
	for _, m := range movers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; !stop.Load(); i++ {
				if err := st.PutBatch([]*traj.Trajectory{m[i%2]}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}()

	searches := 1000
	if testing.Short() {
		searches = 200
	}
	eng := query.New(st, dist.Frechet)
	k := len(ids) + 5
	for i := 0; i < searches; i++ {
		q := query.Query{Kind: query.KindNearest, Point: geo.Point{X: 0.5, Y: 0.5}, K: k}
		if i%2 == 1 {
			q = query.Query{Kind: query.KindTopK, Traj: movers[i%len(movers)][1], K: k}
		}
		ms, _, err := eng.Search(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		everyIDOnce(t, fmt.Sprintf("search %d (kind %d)", i, q.Kind), ms, ids)
	}
}
