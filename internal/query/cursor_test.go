package query

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
)

// tripCtx is a context that is cancelled at its n+1st Err call: somewhere
// inside a search, between region calls or rows, wherever that call falls.
type tripCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newTripCtx(n int64) *tripCtx {
	c := &tripCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *tripCtx) Done() <-chan struct{} { return c.done }

func (c *tripCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestBestFirstReleasesCursorOnAbort checks that a top-k search cancelled
// mid-search, and one whose sink fails, each release every table reference
// the search's region iterators took: once a compaction retires the tables,
// no retired table is left held and no snapshot stays pinned. The store has
// two tables per region, so every region call reads tables.
func TestBestFirstReleasesCursorOnAbort(t *testing.T) {
	f := newFixture(t, dist.Frechet, 2000, 48)
	rng := rand.New(rand.NewSource(49))
	for i := 0; i < 200; i++ {
		tr := nearWalk(rng, f.trajs[rng.Intn(len(f.trajs))], fmt.Sprintf("s%05d", i), 0.004)
		if err := f.store.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	q := nearWalk(rng, f.trajs[100], "q", 0.002)
	stop := errors.New("sink stops")

	for _, tc := range []struct {
		name string
		run  func() error
		want error
	}{
		{"cancelled", func() error {
			_, _, err := f.engine.TopKContext(newTripCtx(40), q, 50)
			return err
		}, context.Canceled},
		{"sink-error", func() error {
			_, _, err := f.engine.Search(bg, Query{Kind: KindTopK, Traj: q, K: 50}, func(Result) error { return stop })
			return err
		}, stop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, err := f.store.Cluster().Stats()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(); !errors.Is(err, tc.want) {
				t.Fatalf("search returned %v, want %v", err, tc.want)
			}
			if err := f.store.Compact(); err != nil {
				t.Fatal(err)
			}
			after, err := f.store.Cluster().Stats()
			if err != nil {
				t.Fatal(err)
			}
			if after.KV.Scans == before.KV.Scans || after.KV.Compactions == before.KV.Compactions {
				t.Fatalf("the search opened %d region iterators and the compaction ran %d times: nothing was held to release",
					after.KV.Scans-before.KV.Scans, after.KV.Compactions-before.KV.Compactions)
			}
			if after.KV.ObsoleteTables != 0 || after.KV.PinnedSnapshots != 0 {
				t.Fatalf("after the search and a compaction %d retired tables are still held and %d snapshots pinned, want 0 and 0",
					after.KV.ObsoleteTables, after.KV.PinnedSnapshots)
			}
			// The next compaction needs tables to retire again.
			for i := 0; i < 50; i++ {
				tr := nearWalk(rng, f.trajs[rng.Intn(len(f.trajs))], fmt.Sprintf("%s%05d", tc.name, i), 0.004)
				if err := f.store.Put(tr); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.store.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
