package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// dataRowsFor scans every data row and returns the decoded records matching
// id, along with their row keys.
func dataRowsFor(t *testing.T, s *Store, id string) ([]*traj.Record, [][]byte) {
	t.Helper()
	res, err := scanRows(s, []xzstar.ValueRange{{Lo: 0, Hi: math.MaxInt64}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*traj.Record
	var keys [][]byte
	for _, e := range res.Entries {
		rec, err := DecodeRow(e.Value)
		if err != nil {
			t.Fatalf("corrupt row %q: %v", e.Key, err)
		}
		if rec.ID == id {
			recs = append(recs, rec)
			keys = append(keys, e.Key)
		}
	}
	return recs, keys
}

// Re-putting an id whose trajectory moved must atomically replace the data
// row: the stale row under the old index value disappears, the id row points
// at the new location, and the stored count stays 1.
func TestPutReplacesStaleRow(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	near := traj.New("cab", []geo.Point{{X: 0.1, Y: 0.1}, {X: 0.11, Y: 0.1}})
	far := traj.New("cab", []geo.Point{{X: 0.9, Y: 0.9}, {X: 0.91, Y: 0.9}})
	if err := s.Put(near); err != nil {
		t.Fatal(err)
	}
	firstRecs, firstKeys := dataRowsFor(t, s, "cab")
	if len(firstRecs) != 1 {
		t.Fatalf("rows after first put = %d, want 1", len(firstRecs))
	}
	if err := s.Put(far); err != nil {
		t.Fatal(err)
	}
	recs, keys := dataRowsFor(t, s, "cab")
	if len(recs) != 1 {
		t.Fatalf("rows after re-put = %d, want 1 (stale row not deleted)", len(recs))
	}
	if bytes.Equal(keys[0], firstKeys[0]) {
		t.Fatal("trajectory moved but its row key did not; test is vacuous")
	}
	approx := func(a, b geo.Point) bool { // row encoding may quantize coordinates
		return math.Abs(a.X-b.X) < 1e-4 && math.Abs(a.Y-b.Y) < 1e-4
	}
	if !approx(recs[0].Points[0], far.Points[0]) {
		t.Fatalf("surviving row holds %v, want the new location", recs[0].Points[0])
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d after re-put, want 1", got)
	}
	rec, err := s.GetByID("cab")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rec.Points[0], far.Points[0]) {
		t.Fatalf("GetByID returned %v, want the new location", rec.Points[0])
	}
}

// A byte-identical re-put must stay a no-op: same single row, same count.
func TestPutIdenticalOverwrite(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	tr := traj.New("cab", []geo.Point{{X: 0.4, Y: 0.4}, {X: 0.41, Y: 0.4}})
	for i := 0; i < 3; i++ {
		if err := s.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	recs, _ := dataRowsFor(t, s, "cab")
	if len(recs) != 1 || s.Count() != 1 {
		t.Fatalf("rows = %d, count = %d after identical re-puts, want 1/1", len(recs), s.Count())
	}
}

// The value metadata kept for pruning (the sorted distinct index values) must
// stay exact under interleaved puts and re-puts — the incremental maintenance
// path must agree with the data rows actually on disk. Observed through the
// snapshot seam, not by reaching into s.mu: the snapshot's immutable value
// view and its row scan come from the same pinned instant, so the comparison
// is exact by construction.
func TestSortedValuesStayConsistent(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2})
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 60; i++ {
		id := "t" + string(rune('a'+i%7)) // re-put a small id set repeatedly
		if err := s.Put(walk(rng, id, 20, 0.05)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	got := snap.values.flatten() // immutable; no lock needed

	// Ground truth: the distinct index values of the data rows in the same
	// snapshot, decoded from the row keys (shard byte + 8-byte value).
	res, err := collectRows(snap, []xzstar.ValueRange{{Lo: 0, Hi: math.MaxInt64}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[int64]bool)
	for _, e := range res.Entries {
		if len(e.Key) < 1+8+1 {
			t.Fatalf("malformed data-row key %q", e.Key)
		}
		distinct[int64(binary.BigEndian.Uint64(e.Key[1:9]))] = true
	}
	want := make([]int64, 0, len(distinct))
	for v := range distinct {
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("the value set has %d entries, on-disk rows have %d distinct values", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("value %d of the set = %d, want %d", i, got[i], want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("the value set is not strictly increasing at %d", i)
		}
	}
	for _, v := range want {
		if !snap.HasValuesIn(v, v+1) {
			t.Fatalf("HasValuesIn misses stored value %d", v)
		}
	}
}

// ScanRangesStream must deliver exactly the stored data rows, one per id, and
// account for what it delivered.
func TestScanRangesStream(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(92))
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Put(walk(rng, string(rune('a'+i/26))+string(rune('a'+i%26)), 15, 0.02)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	ids := map[string]bool{}
	var shipped int64
	res, err := snap.ScanRangesStream(context.Background(), []xzstar.ValueRange{{Lo: 0, Hi: math.MaxInt64}}, nil, 0,
		StreamOptions{}, func(batch []kv.Entry) error {
			for _, e := range batch {
				rec, err := DecodeRow(e.Value)
				if err != nil {
					return err
				}
				ids[rec.ID] = true
				shipped += int64(len(e.Key) + len(e.Value))
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n || res.RowsReturned != n || res.RowsScanned != n {
		t.Fatalf("streamed %d distinct ids (returned %d, scanned %d), want %d each",
			len(ids), res.RowsReturned, res.RowsScanned, n)
	}
	if res.BytesShipped != shipped {
		t.Fatalf("BytesShipped = %d, emit saw %d", res.BytesShipped, shipped)
	}
}
