package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/kv"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// snapRows is the collect helper the scan tests share: one ScanStream over a
// snapshot the caller holds, gathering what emit delivers. It checks the
// stream's own ordering promise on the way — within a region, rows arrive in
// key order — and returns the rows sorted by key. That sort is the helper's,
// for comparing against an expectation: across regions the stream promises no
// order.
func snapRows(t testing.TB, snap *Snapshot, req ScanRequest) ([]kv.Entry, *ScanResult, error) {
	t.Helper()
	var rows []kv.Entry
	last := map[int][]byte{}
	res, err := snap.ScanStream(context.Background(), StreamRequest{ScanRequest: req}, func(b ScanBatch) error {
		for _, e := range b.Entries {
			if prev, ok := last[b.RegionID]; ok && bytes.Compare(prev, e.Key) >= 0 {
				t.Errorf("region %d delivered %q after %q: out of key order", b.RegionID, e.Key, prev)
			}
			last[b.RegionID] = e.Key
		}
		rows = append(rows, b.Entries...)
		return nil
	})
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i].Key, rows[j].Key) < 0 })
	return rows, res, err
}

// scanRows is snapRows over a snapshot taken (and released) for the one scan.
func scanRows(t testing.TB, c *Cluster, req ScanRequest) ([]kv.Entry, *ScanResult, error) {
	t.Helper()
	snap, err := c.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer snap.Close()
	return snapRows(t, snap, req)
}

// mustScanRows is scanRows for scans that have no reason to fail.
func mustScanRows(t testing.TB, c *Cluster, req ScanRequest) ([]kv.Entry, *ScanResult) {
	t.Helper()
	rows, res, err := scanRows(t, c, req)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return rows, res
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("missing dir must fail")
	}
	if _, err := Open(Config{Dir: t.TempDir(), SplitKeys: [][]byte{[]byte("a"), []byte("a")}}); err == nil {
		t.Fatal("duplicate split keys must fail")
	}
}

func TestRegionLayout(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("m"), []byte("g")}})
	regions := c.Regions()
	if len(regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(regions))
	}
	// Sorted, contiguous, covering.
	if regions[0].Start() != nil || string(regions[0].End()) != "g" {
		t.Errorf("region 0 bounds: %q..%q", regions[0].Start(), regions[0].End())
	}
	if string(regions[1].Start()) != "g" || string(regions[1].End()) != "m" {
		t.Errorf("region 1 bounds: %q..%q", regions[1].Start(), regions[1].End())
	}
	if string(regions[2].Start()) != "m" || regions[2].End() != nil {
		t.Errorf("region 2 bounds: %q..%q", regions[2].Start(), regions[2].End())
	}
}

func TestPutGetRouting(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("m")}})
	keys := []string{"apple", "zebra", "m", "lion", "mzzz"}
	for _, k := range keys {
		if err := c.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		got, err := c.Get([]byte(k))
		if err != nil || string(got) != "v-"+k {
			t.Fatalf("Get(%q) = %q, %v", k, got, err)
		}
	}
	if _, err := c.Get([]byte("nope")); err != kv.ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}
	// Rows landed in the right regions.
	regions := c.Regions()
	if _, err := regions[0].db.Get([]byte("apple")); err != nil {
		t.Error("apple must live in the first region")
	}
	if _, err := regions[1].db.Get([]byte("zebra")); err != nil {
		t.Error("zebra must live in the second region")
	}
}

func TestDelete(t *testing.T) {
	c := newTestCluster(t, Config{})
	c.Put([]byte("k"), []byte("v"))
	if err := c.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("k")); err != kv.ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
}

func loadRows(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("row%05d", i)), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanSingleRange(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("row00300"), []byte("row00600")}})
	loadRows(t, c, 1000)
	rows, res := mustScanRows(t, c, ScanRequest{Ranges: []KeyRange{{Start: []byte("row00250"), End: []byte("row00350")}}})
	if len(rows) != 100 {
		t.Fatalf("entries = %d, want 100", len(rows))
	}
	// Crossing a region boundary needs two RPCs.
	if res.RPCs != 2 {
		t.Fatalf("RPCs = %d, want 2", res.RPCs)
	}
	// Exactly the requested rows, each once (per-region key order is checked
	// by the helper).
	for i, e := range rows {
		if want := fmt.Sprintf("row%05d", 250+i); string(e.Key) != want {
			t.Fatalf("row %d is %q, want %q", i, e.Key, want)
		}
	}
}

func TestScanMultipleRanges(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("row00500")}})
	loadRows(t, c, 1000)
	rows, _ := mustScanRows(t, c, ScanRequest{Ranges: []KeyRange{
		{Start: []byte("row00100"), End: []byte("row00110")},
		{Start: []byte("row00700"), End: []byte("row00720")},
	}})
	if len(rows) != 30 {
		t.Fatalf("entries = %d, want 30", len(rows))
	}
}

func TestScanServerSideFilter(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("row00500")}})
	loadRows(t, c, 1000)
	rows, res := mustScanRows(t, c, ScanRequest{
		Ranges: []KeyRange{{}},
		Filter: func(key, value []byte) bool { return key[len(key)-1] == '0' },
	})
	if len(rows) != 100 {
		t.Fatalf("filtered entries = %d, want 100", len(rows))
	}
	if res.RowsScanned != 1000 {
		t.Fatalf("rows scanned = %d, want 1000", res.RowsScanned)
	}
	if res.RowsReturned != 100 {
		t.Fatalf("rows returned = %d, want 100", res.RowsReturned)
	}
	// Push-down means only accepted rows ship.
	var want int64
	for _, e := range rows {
		want += int64(len(e.Key) + len(e.Value))
	}
	if res.BytesShipped != want {
		t.Fatalf("bytes shipped = %d, want %d", res.BytesShipped, want)
	}
}

func TestScanEmptyRangeList(t *testing.T) {
	c := newTestCluster(t, Config{})
	loadRows(t, c, 10)
	rows, res := mustScanRows(t, c, ScanRequest{})
	if len(rows) != 0 || res.RPCs != 0 {
		t.Fatalf("empty request scanned something: %+v", res)
	}
}

func TestStatsAggregation(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("row00500")}})
	loadRows(t, c, 1000)
	c.Flush()
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.KV.Puts != 1000 {
		t.Fatalf("puts = %d", before.KV.Puts)
	}
	mustScanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}})
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.RPCs-before.RPCs != 2 {
		t.Fatalf("rpc delta = %d, want 2", after.RPCs-before.RPCs)
	}
	if after.KV.EntriesRead-before.KV.EntriesRead != 1000 {
		t.Fatalf("entries read delta = %d", after.KV.EntriesRead-before.KV.EntriesRead)
	}
}

func TestConcurrentPutsAndScans(t *testing.T) {
	c := newTestCluster(t, Config{
		SplitKeys: [][]byte{[]byte("w2")},
		KV:        kv.Options{MemtableBytes: 16 << 10},
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-%04d", w, i)
				if err := c.Put([]byte(key), []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := scanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}}); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rows, _ := mustScanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}})
	if len(rows) != 800 {
		t.Fatalf("final rows = %d, want 800", len(rows))
	}
}

func TestScanMatchesSortedLoad(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("k3"), []byte("k6")}})
	rng := rand.New(rand.NewSource(1))
	var keys []string
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d-%06d", rng.Intn(10), rng.Intn(1000000))
		keys = append(keys, k)
		c.Put([]byte(k), []byte("v"))
	}
	sort.Strings(keys)
	// Dedup (random collisions possible).
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			uniq = append(uniq, k)
		}
	}
	rows, _ := mustScanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}})
	if len(rows) != len(uniq) {
		t.Fatalf("scan rows = %d, want %d", len(rows), len(uniq))
	}
	for i, e := range rows {
		if string(e.Key) != uniq[i] {
			t.Fatalf("row %d: %q != %q", i, e.Key, uniq[i])
		}
	}
}

func TestClosedCluster(t *testing.T) {
	c := newTestCluster(t, Config{})
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapRows(t, snap, ScanRequest{Ranges: []KeyRange{{}}}); err != kv.ErrClosed {
		t.Errorf("ScanStream on a closed snapshot: %v", err)
	}
	c.Close()
	if err := c.Put([]byte("k"), []byte("v")); err != kv.ErrClosed {
		t.Errorf("Put after close: %v", err)
	}
	if err := c.Delete([]byte("k")); err != kv.ErrClosed {
		t.Errorf("Delete after close: %v", err)
	}
	if _, err := c.Snapshot(); err != kv.ErrClosed {
		t.Errorf("Snapshot after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestRangesOverlap(t *testing.T) {
	b := func(s string) []byte {
		if s == "" {
			return nil
		}
		return []byte(s)
	}
	tests := []struct {
		s1, e1, s2, e2 string
		want           bool
	}{
		{"a", "c", "b", "d", true},
		{"a", "b", "b", "c", false}, // half-open: touching doesn't overlap
		{"", "", "x", "y", true},    // unbounded covers everything
		{"a", "b", "c", "d", false},
		{"c", "d", "a", "b", false},
		{"a", "", "", "b", true},
	}
	for i, tc := range tests {
		if got := rangesOverlap(b(tc.s1), b(tc.e1), b(tc.s2), b(tc.e2)); got != tc.want {
			t.Errorf("case %d: got %v, want %v", i, got, tc.want)
		}
	}
}

func BenchmarkClusterScan(b *testing.B) {
	dir := b.TempDir()
	c, err := Open(Config{Dir: dir, SplitKeys: [][]byte{[]byte("row05000")}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10000; i++ {
		c.Put([]byte(fmt.Sprintf("row%05d", i)), bytes.Repeat([]byte("v"), 128))
	}
	c.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := scanRows(b, c, ScanRequest{Ranges: []KeyRange{
			{Start: []byte("row04900"), End: []byte("row05100")},
		}})
		if err != nil || len(rows) != 200 {
			b.Fatalf("scan: %d entries, %v", len(rows), err)
		}
	}
}
