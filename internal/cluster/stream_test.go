package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/kv"
	"repro/internal/vfs"
)

// streamCollect drains a ScanStream into a flat entry list, recording batch
// shapes along the way.
type streamCollect struct {
	batches int
	maxRows int
	entries []string
	regions map[int]bool
}

func (sc *streamCollect) emit(b ScanBatch) error {
	sc.batches++
	if len(b.Entries) > sc.maxRows {
		sc.maxRows = len(b.Entries)
	}
	if sc.regions == nil {
		sc.regions = map[int]bool{}
	}
	sc.regions[b.RegionID] = true
	for _, e := range b.Entries {
		sc.entries = append(sc.entries, string(e.Key))
	}
	return nil
}

// scanStream runs one ScanStream over a snapshot taken (and released) for it,
// for the tests that need their own emit callback; the rest use scanRows.
func scanStream(ctx context.Context, t *testing.T, c *Cluster, req ScanRequest, emit func(ScanBatch) error) (*ScanResult, error) {
	t.Helper()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	return snap.ScanStream(ctx, StreamRequest{ScanRequest: req}, emit)
}

// TestScanStreamDeliversAllRows: the scan must deliver exactly the loaded
// rows, each once, in batches of at most batchRows from both regions, the
// batches concatenated in key order, and its accounting must add up to what
// emit saw.
func TestScanStreamDeliversAllRows(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("row00200")}})
	const n = 400 // 200 rows per region: several batches each
	loadRows(t, c, n)
	sc := &streamCollect{}
	res, err := scanStream(context.Background(), t, c, ScanRequest{Ranges: []KeyRange{{}}}, sc.emit)
	if err != nil {
		t.Fatal(err)
	}
	if sc.maxRows > batchRows {
		t.Fatalf("batch of %d rows exceeds the %d-row cap", sc.maxRows, batchRows)
	}
	if sc.batches < n/batchRows {
		t.Fatalf("only %d batches for %d rows at %d rows a batch", sc.batches, n, batchRows)
	}
	if len(sc.regions) != 2 {
		t.Fatalf("batches came from %d regions, want 2", len(sc.regions))
	}
	if !sort.StringsAreSorted(sc.entries) {
		t.Fatal("the batches of a two-region scan, concatenated, are not in key order")
	}
	var want []string
	var wantBytes int64
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("row%05d", i), fmt.Sprintf("val%d", i)
		want = append(want, k)
		wantBytes += int64(len(k) + len(v))
	}
	if !equalStrings(sc.entries, want) {
		t.Fatal("streamed row set differs from the loaded rows")
	}
	if res.RowsScanned != n || res.RowsReturned != n || res.BytesShipped != wantBytes || res.RPCs != 2 {
		t.Fatalf("accounting scanned=%d returned=%d bytes=%d rpcs=%d, want %d/%d/%d/2",
			res.RowsScanned, res.RowsReturned, res.BytesShipped, res.RPCs, n, n, wantBytes)
	}
}

// TestScanStartsNoGoroutine: a scan walks its regions on the calling
// goroutine, one-shot or through a cursor, so no goroutine is live inside
// emit that was not live before the call.
func TestScanStartsNoGoroutine(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{rowKey(100), rowKey(200), rowKey(300)}})
	loadRows(t, c, 400)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	cur := snap.Cursor()
	defer cur.Close()
	req := StreamRequest{ScanRequest: ScanRequest{Ranges: []KeyRange{{}}}}
	for _, scan := range []struct {
		name string
		run  func(context.Context, StreamRequest, func(ScanBatch) error) (*ScanResult, error)
	}{{"Snapshot.ScanStream", snap.ScanStream}, {"Cursor.ScanStream", cur.ScanStream}} {
		before := runtime.NumGoroutine()
		regions, most := map[int]bool{}, 0
		if _, err := scan.run(context.Background(), req, func(b ScanBatch) error {
			regions[b.RegionID] = true
			most = max(most, runtime.NumGoroutine())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(regions) != 4 {
			t.Fatalf("%s: batches came from %d regions, want 4", scan.name, len(regions))
		}
		if most > before {
			t.Errorf("%s: %d goroutines inside emit, %d before the call", scan.name, most, before)
		}
	}
}

// streamFaultCluster is scanFaultCluster with enough rows per region for
// several batches (400 rows at batchRows = 64) and values fat enough that each
// region spans dozens of 4 KiB SSTable blocks: block reads then interleave
// with batch emission, so injected faults fire mid-stream, after rows have
// already been delivered.
func streamFaultCluster(t *testing.T) (*Cluster, *vfs.FaultFS, []string) {
	t.Helper()
	fsys := vfs.NewFault()
	c, err := Open(Config{
		Dir:       clusterTortureDir,
		FS:        fsys,
		SplitKeys: [][]byte{[]byte("m")},
		KV:        kv.Options{BlockCacheBytes: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	pad := strings.Repeat("x", 512)
	var keys []string
	for _, prefix := range []string{"a", "z"} {
		for i := 0; i < 400; i++ {
			k := fmt.Sprintf("%s%03d", prefix, i)
			if err := c.Put([]byte(k), []byte(pad+k)); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c, fsys, keys
}

// TestScanStreamStrictRegionFailure: a permanent region failure must surface
// as a RegionError without deadlocking the producer.
func TestScanStreamStrictRegionFailure(t *testing.T) {
	c, fsys, _ := scanFaultCluster(t)
	r0 := c.Regions()[0]
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpRead && strings.HasPrefix(op.Path, r0.dir) {
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})
	_, err := scanStream(context.Background(), t, c, ScanRequest{Ranges: []KeyRange{{}}},
		func(b ScanBatch) error { return nil })
	if err == nil {
		t.Fatal("strict stream succeeded despite a permanently failing region")
	}
	var re *RegionError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) does not wrap a RegionError", err, err)
	}
	if re.RegionID != r0.ID() {
		t.Fatalf("RegionError names region %d, want %d", re.RegionID, r0.ID())
	}
}

// TestScanStreamEmitErrorAborts: a consumer error must abort the scan
// promptly, be returned verbatim, and never be recorded as a region failure.
func TestScanStreamEmitErrorAborts(t *testing.T) {
	c, _, _ := streamFaultCluster(t)
	sentinel := errors.New("consumer is full")
	batches := 0
	res, err := scanStream(context.Background(), t, c, ScanRequest{Ranges: []KeyRange{{}}},
		func(b ScanBatch) error {
			batches++
			if batches >= 2 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("stream returned %v, want the consumer's error", err)
	}
	if res != nil {
		t.Fatal("aborted stream returned a result")
	}
	var re *RegionError
	if errors.As(err, &re) {
		t.Fatal("consumer error was misreported as a region failure")
	}
}

// TestScanStreamContextCancelMidStream cancels from inside the emit
// callback: the stream must return ctx's error, and the producer side must
// wind down (no goroutine leak is separately guarded by -race + test exit).
func TestScanStreamContextCancelMidStream(t *testing.T) {
	c, _, _ := streamFaultCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	_, err := scanStream(ctx, t, c, ScanRequest{Ranges: []KeyRange{{}}},
		func(b ScanBatch) error {
			batches++
			if batches >= 2 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream returned %v, want context.Canceled", err)
	}
}

// TestScanStreamTortureMidStreamFaults hammers the streaming scan with
// permanent region failures that start after a random number of good reads,
// mid-stream. Invariants: a fault-free pass delivers every row
// exactly once; a faulted pass fails with a RegionError naming the faulted
// region and its bounds; rows delivered before the failure carry no
// duplicates and no phantoms. Runs in the torture group under -race.
func TestScanStreamTortureMidStreamFaults(t *testing.T) {
	c, fsys, keys := streamFaultCluster(t)
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
	}
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		faulted := iter%2 == 1
		var r *Region
		if faulted {
			r = c.Regions()[rng.Intn(2)]
			// A region's scan reads 50 blocks, about 8 per 64-row batch: the
			// fault fires after the region has shipped at least one batch and
			// before its scan can finish.
			var goodReads atomic.Int32
			goodReads.Store(int32(10 + rng.Intn(30)))
			fsys.SetInject(func(op vfs.Op) vfs.Fault {
				if op.Kind == vfs.OpRead && strings.HasPrefix(op.Path, r.dir) && goodReads.Add(-1) < 0 {
					return vfs.FaultErr
				}
				return vfs.FaultNone
			})
		}
		seen := map[string]int{}
		_, err := scanStream(context.Background(), t, c, ScanRequest{Ranges: []KeyRange{{}}},
			func(b ScanBatch) error {
				for _, e := range b.Entries {
					seen[string(e.Key)]++
				}
				return nil
			})
		for k, n := range seen {
			if !want[k] {
				t.Fatalf("iter %d: phantom row %q", iter, k)
			}
			if n != 1 {
				t.Fatalf("iter %d: row %q delivered %d times", iter, k, n)
			}
		}
		if !faulted {
			if err != nil || len(seen) != len(keys) {
				t.Fatalf("iter %d: fault-free pass delivered %d/%d rows, err %v", iter, len(seen), len(keys), err)
			}
			continue
		}
		fromFaulted := 0
		for k := range seen {
			if (r.Start() == nil || k >= string(r.Start())) && (r.End() == nil || k < string(r.End())) {
				fromFaulted++
			}
		}
		if fromFaulted == 0 {
			t.Fatalf("iter %d: fault fired before region %d shipped a row; not mid-stream", iter, r.ID())
		}
		var re *RegionError
		if !errors.As(err, &re) {
			t.Fatalf("iter %d: faulted pass returned %v, want a RegionError", iter, err)
		}
		if re.RegionID != r.ID() || !bytes.Equal(re.Start, r.Start()) || !bytes.Equal(re.End, r.End()) {
			t.Fatalf("iter %d: RegionError names region %d [%q,%q), want %d [%q,%q)",
				iter, re.RegionID, re.Start, re.End, r.ID(), r.Start(), r.End())
		}
		fsys.SetInject(nil)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanRegionAllocsFlatInRanges pins that a region call opens one
// iterator for all its ranges: 64 ranges allocate within a small constant of
// what one range does. Every row is rejected by the filter, so nothing is
// copied out or shipped.
func TestScanRegionAllocsFlatInRanges(t *testing.T) {
	c := newTestCluster(t, Config{}) // one region
	loadRows(t, c, 4000)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i += 7 { // overwrites in a memtable the snapshot freezes
		if err := c.Put([]byte(fmt.Sprintf("row%05d", i)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	task := func(n int) regionTask {
		ranges := make([]KeyRange, n)
		for i := range ranges {
			lo := 10 + 60*i
			ranges[i] = KeyRange{Start: []byte(fmt.Sprintf("row%05d", lo)), End: []byte(fmt.Sprintf("row%05d", lo+3))}
		}
		return regionTask{region: snap.regions[0].region, snap: snap.regions[0].snap, ranges: ranges}
	}
	res := &ScanResult{}
	reject := func(_, _ []byte) bool { return false }
	send := func(b *ScanBatch) error { recycle(b); return nil }
	allocs := func(task regionTask) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := c.scanRegion(context.Background(), task, nil, reject, res, send); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(task(1)), allocs(task(64))
	t.Logf("allocations per region call: %.0f with 1 range, %.0f with 64", one, many)
	if many > one+2 {
		t.Fatalf("64 ranges allocate %.0f per region call, 1 range %.0f: want within 2", many, one)
	}
	if rows := res.RowsScanned; rows != 21*(3+64*3) {
		t.Fatalf("rows scanned = %d, want %d", rows, 21*(3+64*3))
	}
}

// TestScanTasksMatchPerRegionPlan checks the one-pass planner against the
// plan it replaces: sort the ranges by start, then give each region every
// range overlapping it, clipped to its bounds. Ranges come sorted or not,
// overlapping, empty or open-ended; the request's slice is left as it was.
func TestScanTasksMatchPerRegionPlan(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("b"), []byte("d"), []byte("f")}})
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	rng := rand.New(rand.NewSource(38))
	key := func() []byte {
		if rng.Intn(6) == 0 {
			return nil
		}
		return []byte{byte('a' + rng.Intn(8)), byte('a' + rng.Intn(3))}
	}
	byStart := func(rs []KeyRange) {
		sort.SliceStable(rs, func(i, j int) bool { return bytes.Compare(rs[i].Start, rs[j].Start) < 0 })
	}
	for iter := 0; iter < 2000; iter++ {
		ranges := make([]KeyRange, rng.Intn(10))
		for i := range ranges {
			ranges[i] = KeyRange{Start: key(), End: key()}
		}
		if rng.Intn(2) == 0 {
			byStart(ranges)
		}
		before := fmt.Sprintf("%q", ranges)

		sorted := append([]KeyRange(nil), ranges...)
		byStart(sorted)
		var want []string
		for _, sr := range snap.regions {
			var rs []KeyRange
			for _, rg := range sorted {
				if rangesOverlap(rg.Start, rg.End, sr.region.start, sr.region.end) {
					rs = append(rs, clipRange(rg, sr.region))
				}
			}
			if len(rs) > 0 {
				want = append(want, fmt.Sprintf("%d %q", sr.region.id, rs))
			}
		}
		tasks, err := snap.scanTasks(ScanRequest{Ranges: ranges}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, task := range tasks {
			got = append(got, fmt.Sprintf("%d %q", task.region.id, task.ranges))
		}
		if !equalStrings(got, want) {
			t.Fatalf("ranges %s: planned %v, want %v", before, got, want)
		}
		if after := fmt.Sprintf("%q", ranges); after != before {
			t.Fatalf("planning reordered the request's ranges: %s, was %s", after, before)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the mean heap bytes one call
// of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestScanShipsRowWithoutBatchAlloc: a region call pays for the rows it
// ships, not for a fresh batch. A scan that ships one row allocates less than
// one 64-entry batch more than the same scan with every row filtered out:
// batches are recycled once emit returns.
func TestScanShipsRowWithoutBatchAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its Puts under -race, so recycled batches are reallocated")
	}
	c := newTestCluster(t, Config{}) // one region
	loadRows(t, c, 1000)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	req := ScanRequest{Ranges: []KeyRange{{Start: []byte("row00100"), End: []byte("row00200")}}}
	perCall := func(filter Filter, wantRows int64) float64 {
		req := StreamRequest{ScanRequest: ScanRequest{Ranges: req.Ranges, Filter: filter}}
		return bytesPerRun(200, func() {
			res, err := snap.ScanStream(context.Background(), req, func(ScanBatch) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if res.RowsReturned != wantRows {
				t.Fatalf("shipped %d rows, want %d", res.RowsReturned, wantRows)
			}
		})
	}
	target := []byte("row00150")
	none := perCall(func(_, _ []byte) bool { return false }, 0)
	one := perCall(func(key, _ []byte) bool { return bytes.Equal(key, target) }, 1)
	batch := float64(batchRows * unsafe.Sizeof(kv.Entry{}))
	t.Logf("bytes per scan: %.0f shipping nothing, %.0f shipping one row (a batch is %.0f)", none, one, batch)
	if one-none >= batch {
		t.Fatalf("shipping one row costs %.0f bytes, not less than a %.0f-byte batch", one-none, batch)
	}
}

// TestScanStreamRecycledBatchesKeepRows: a consumer that keeps the entries of
// every batch, across several multi-region scans, sees every key and value
// intact at the end, though each batch's slice is reused once emit returns.
func TestScanStreamRecycledBatchesKeepRows(t *testing.T) {
	c := newTestCluster(t, Config{
		SplitKeys: [][]byte{[]byte("row00500"), []byte("row01000"), []byte("row01500")},
	})
	const n = 2000
	loadRows(t, c, n)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 { // newer versions in the memtable
		if err := c.Put([]byte(fmt.Sprintf("row%05d", i)), []byte(fmt.Sprintf("new%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := func(key []byte) string {
		var i int
		if _, err := fmt.Sscanf(string(key), "row%05d", &i); err != nil {
			t.Fatalf("unexpected key %q", key)
		}
		if i%3 == 0 {
			return fmt.Sprintf("new%d", i)
		}
		return fmt.Sprintf("val%d", i)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	// Every other row ships, so batches fill and part-fill across regions.
	req := StreamRequest{ScanRequest: ScanRequest{
		Ranges: []KeyRange{{}},
		Filter: func(key, _ []byte) bool { return key[len(key)-1]%2 == 0 },
	}}
	const scans = 8
	var kept []kv.Entry
	for s := 0; s < scans; s++ {
		if _, err := snap.ScanStream(context.Background(), req, func(b ScanBatch) error {
			kept = append(kept, b.Entries...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(kept) != scans*n/2 {
		t.Fatalf("kept %d entries, want %d", len(kept), scans*n/2)
	}
	for _, e := range kept {
		if got := string(e.Value); got != want(e.Key) {
			t.Fatalf("kept entry %q = %q, want %q", e.Key, got, want(e.Key))
		}
	}
}

// TestScanTasksAliasAlignedRanges: ranges that lie inside their regions, as
// the store's shard-by-shard ranges do, are scanned from the request's own
// slice, with no copy; ranges that straddle a region bound are still clipped
// exactly, and the request's slice is left as it was.
func TestScanTasksAliasAlignedRanges(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{{1}, {2}, {3}}}) // one region per shard byte
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var aligned []KeyRange
	for shard := byte(0); shard < 4; shard++ {
		for v := byte(0); v < 16; v++ {
			aligned = append(aligned, KeyRange{Start: []byte{shard, 2 * v}, End: []byte{shard, 2*v + 1}})
		}
	}
	tasks, err := snap.scanTasks(ScanRequest{Ranges: aligned}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 {
		t.Fatalf("%d tasks, want one per region", len(tasks))
	}
	for i, task := range tasks {
		if len(task.ranges) != 16 || &task.ranges[0] != &aligned[16*i] {
			t.Fatalf("region %d scans a copy of its %d ranges, not the request's own", task.region.id, len(task.ranges))
		}
	}

	// Shard 1's ranges stay inside their region; one range crosses from
	// shard 2 into shard 3, and an open-ended one runs from shard 3 on.
	straddle := []KeyRange{
		{Start: []byte{1, 4}, End: []byte{1, 8}},
		{Start: []byte{2, 4}, End: []byte{3, 2}},
		{Start: []byte{3, 6}},
	}
	before := fmt.Sprintf("%q", straddle)
	tasks, err = snap.scanTasks(ScanRequest{Ranges: straddle}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, task := range tasks {
		got = append(got, fmt.Sprintf("%d %q", task.region.id, task.ranges))
	}
	want := []string{
		fmt.Sprintf("%d %q", tasks[0].region.id, []KeyRange{straddle[0]}),
		fmt.Sprintf("%d %q", tasks[1].region.id, []KeyRange{{Start: []byte{2, 4}, End: []byte{3}}}),
		fmt.Sprintf("%d %q", tasks[2].region.id, []KeyRange{{Start: []byte{3}, End: []byte{3, 2}}, {Start: []byte{3, 6}}}),
	}
	if !equalStrings(got, want) {
		t.Fatalf("planned %v, want %v", got, want)
	}
	if &tasks[0].ranges[0] != &straddle[0] {
		t.Fatalf("region %d's one range lies inside it but was copied", tasks[0].region.id)
	}
	if after := fmt.Sprintf("%q", straddle); after != before {
		t.Fatalf("planning changed the request's ranges: %s, was %s", after, before)
	}
}
