package cluster_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/store"
)

// TestBestFirstScansSortedRanges checks that no drain of a best-first search
// (top-k and nearest-to-point) makes the cluster sort its ranges: the search
// hands its index spaces over in value order, so the store's shard-by-shard
// row-key ranges arrive in key order and every region scans its run of them
// in place. An unsorted request shows the counter is live.
func TestBestFirstScansSortedRanges(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	data := gen.TDrive(gen.TDriveOptions{Seed: 48, N: 2000})
	if err := st.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	eng := query.New(st, dist.Frechet)
	ctx := context.Background()

	sorts := st.Cluster().RangeSorts()
	var ranges int
	for i := 0; i < 20; i++ {
		q := data[i*97]
		_, stats, err := eng.TopKContext(ctx, q, 50)
		if err != nil {
			t.Fatal(err)
		}
		ranges += stats.Ranges
		_, stats, err = eng.Search(ctx, query.Query{Kind: query.KindNearest, Point: q.Points[0], K: 20}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ranges += stats.Ranges
	}
	if d := st.Cluster().RangeSorts() - sorts; d != 0 {
		t.Errorf("40 best-first searches scanning %d index spaces made the cluster sort ranges %d times, want 0", ranges, d)
	}

	snap, err := st.Cluster().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	unsorted := cluster.StreamRequest{ScanRequest: cluster.ScanRequest{Ranges: []cluster.KeyRange{
		{Start: []byte{2}, End: []byte{3}}, {Start: []byte{0}, End: []byte{1}},
	}}}
	sorts = st.Cluster().RangeSorts()
	if _, err := snap.ScanStream(ctx, unsorted, func(cluster.ScanBatch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if d := st.Cluster().RangeSorts() - sorts; d != 1 {
		t.Fatalf("an unsorted request counted %d sorts, want 1", d)
	}
}
