package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/kv"
)

// rowKey is key i of loadRows' key space.
func rowKey(i int) []byte { return []byte(fmt.Sprintf("row%05d", i)) }

// layeredCluster is a four-region cluster whose rows sit in tables and, for
// every third row, in a newer memtable version; every seventh row is deleted.
func layeredCluster(t *testing.T) *Cluster {
	t.Helper()
	c := newTestCluster(t, Config{
		SplitKeys: [][]byte{rowKey(500), rowKey(1000), rowKey(1500)},
	})
	const n = 2000
	loadRows(t, c, n)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		if err := c.Put(rowKey(i), []byte(fmt.Sprintf("newer%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if err := c.Delete(rowKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// scanFunc is Snapshot.ScanStream or Cursor.ScanStream.
type scanFunc func(context.Context, StreamRequest, func(ScanBatch) error) (*ScanResult, error)

// collectRows runs one scan and returns its rows sorted by key; emit, when
// not nil, sees every batch too.
func collectRows(scan scanFunc, req ScanRequest, emit func(ScanBatch) error) ([]kv.Entry, *ScanResult, error) {
	var rows []kv.Entry
	res, err := scan(context.Background(), StreamRequest{ScanRequest: req}, func(b ScanBatch) error {
		rows = append(rows, b.Entries...)
		if emit != nil {
			return emit(b)
		}
		return nil
	})
	slices.SortFunc(rows, func(a, b kv.Entry) int { return bytes.Compare(a.Key, b.Key) })
	return rows, res, err
}

// TestCursorScanStreamMatchesSnapshot runs a chain of requests through one
// cursor, each built in the key bytes of the one before, and checks every
// one against a one-shot ScanStream of the same snapshot: the same rows, RPCs
// and counts. The chain covers sorted, unsorted, overlapping, clipped, empty
// and open ranges, a filter, and a scan its consumer aborts. The cursor opens
// one kv iterator per region it scans, whatever the number of scans, and
// Close releases them.
func TestCursorScanStreamMatchesSnapshot(t *testing.T) {
	c := layeredCluster(t)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	cur := snap.Cursor()
	defer cur.Close()

	r := func(a, b int) KeyRange {
		var kr KeyRange
		if a >= 0 {
			kr.Start = rowKey(a)
		}
		if b >= 0 {
			kr.End = rowKey(b)
		}
		return kr
	}
	sevens := func(key, _ []byte) bool { return key[len(key)-1] == '7' }
	abort := errors.New("consumer stops")
	steps := []struct {
		ranges []KeyRange
		filter Filter
		abort  bool
	}{
		{ranges: []KeyRange{r(100, 200)}},
		{ranges: []KeyRange{r(450, 1050)}},
		{ranges: []KeyRange{r(1700, 1800), r(10, 20), r(990, 1010)}},
		{ranges: []KeyRange{r(0, 50)}},
		{ranges: []KeyRange{r(100, 300), r(250, 400), r(1400, 1600)}},
		{ranges: []KeyRange{r(600, 600), r(700, 650)}},
		{ranges: []KeyRange{r(-1, 30), r(1990, -1)}},
		{ranges: []KeyRange{r(-1, -1)}, filter: sevens},
		{ranges: []KeyRange{r(-1, -1)}, abort: true},
		{ranges: []KeyRange{r(-1, -1)}},
		{ranges: []KeyRange{r(1200, 1300), r(300, 320)}},
	}

	keys := make([]byte, 0, 256) // every step's range keys, overwritten by the next
	scans := int64(0)
	for i, step := range steps {
		clear(keys[:cap(keys)])
		keys = keys[:0]
		ranges := make([]KeyRange, len(step.ranges))
		for j, kr := range step.ranges {
			place := func(k []byte) []byte {
				if k == nil {
					return nil
				}
				keys = append(keys, k...)
				return keys[len(keys)-len(k) : len(keys) : len(keys)]
			}
			ranges[j] = KeyRange{Start: place(kr.Start), End: place(kr.End)}
		}
		req := ScanRequest{Ranges: ranges, Filter: step.filter}

		before := c.kvStats().Scans
		var emit func(ScanBatch) error
		if step.abort {
			emit = func(ScanBatch) error { return abort }
		}
		got, res, err := collectRows(cur.ScanStream, req, emit)
		scans += c.kvStats().Scans - before
		if step.abort {
			if !errors.Is(err, abort) {
				t.Fatalf("step %d: aborted scan returned %v, want the consumer's error", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, wantRes, err := collectRows(snap.ScanStream, ScanRequest{Ranges: step.ranges, Filter: step.filter}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, func(a, b kv.Entry) bool {
			return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
		}) {
			t.Errorf("step %d: the cursor ships %d rows, a one-shot scan %d", i, len(got), len(want))
		}
		if res.RPCs != wantRes.RPCs || res.RowsScanned != wantRes.RowsScanned || res.RowsReturned != wantRes.RowsReturned {
			t.Errorf("step %d: cursor result %+v, one-shot %+v", i, *res, *wantRes)
		}
	}
	if scans != int64(len(c.regions)) {
		t.Errorf("the cursor opened %d kv iterators over %d scans, want one per region (%d)", scans, len(steps), len(c.regions))
	}

	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for i, sl := range cur.slots {
		if sl.it != nil {
			t.Errorf("region %d keeps its iterator after Close", i)
		}
	}
	if _, _, err := collectRows(cur.ScanStream, ScanRequest{Ranges: []KeyRange{r(-1, -1)}}, nil); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("a scan through a closed cursor returned %v, want kv.ErrClosed", err)
	}
	_ = snap.Close()
	late := snap.Cursor()
	defer late.Close()
	if _, _, err := collectRows(late.ScanStream, ScanRequest{Ranges: []KeyRange{r(-1, -1)}}, nil); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("a cursor scan after the snapshot's Close returned %v, want kv.ErrClosed", err)
	}
}

// kvStats sums the regions' kv counters.
func (c *Cluster) kvStats() kv.StatsSnapshot {
	st, err := c.Stats()
	if err != nil {
		panic(err)
	}
	return st.KV
}

// overlaps reports whether a's bytes and b's backing array from b on share
// memory.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// TestScanRegionShipsOwnedCopies pins the one copy a region call makes of a
// row it ships: every shipped key and value is exactly its own length, and
// none shares memory with the bytes the region's iterator handed out (a
// table's cached block, a memtable node). An un-copied row would pin its
// whole block, through a cursor for as long as the query runs. It checks
// one-shot scans and a cursor's first and re-targeted scans.
func TestScanRegionShipsOwnedCopies(t *testing.T) {
	c := layeredCluster(t)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// The store's own bytes for every row, as an iterator hands them out.
	type stored struct{ key, value []byte }
	own := map[string]stored{}
	for _, sr := range snap.regions {
		it := sr.snap.ScanRanges([]KeyRange{{}})
		for it.Next() {
			own[string(it.Key())] = stored{it.Key(), it.Value()}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		_ = it.Close()
	}

	check := func(name string, rows []kv.Entry) {
		t.Helper()
		if len(rows) == 0 {
			t.Fatalf("%s shipped nothing", name)
		}
		bad := 0
		for _, e := range rows {
			s, ok := own[string(e.Key)]
			if !ok {
				t.Fatalf("%s shipped %q, which the store does not hold", name, e.Key)
			}
			if cap(e.Key) != len(e.Key) || cap(e.Value) != len(e.Value) ||
				overlaps(e.Key, s.key) || overlaps(e.Value, s.value) {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d shipped rows are not copies of their own length", name, bad, len(rows))
		}
	}
	all := ScanRequest{Ranges: []KeyRange{{}}}
	rows, _, err := collectRows(snap.ScanStream, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("a one-shot scan", rows)

	cur := snap.Cursor()
	defer cur.Close()
	for i, req := range []ScanRequest{
		{Ranges: []KeyRange{{Start: rowKey(900), End: rowKey(1100)}}},
		all,
	} {
		rows, _, err := collectRows(cur.ScanStream, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("cursor scan %d", i), rows)
	}
}
