package kv

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// scanKey is key i of the ScanRanges tests' key space.
func scanKey(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }

// keyRange builds [scanKey(a), scanKey(b)); -1 leaves that bound open.
func keyRange(a, b int) Range {
	var r Range
	if a >= 0 {
		r.Start = scanKey(a)
	}
	if b >= 0 {
		r.End = scanKey(b)
	}
	return r
}

// drain collects an iterator's entries as "key=value" strings and closes it.
func drain(t *testing.T, it Iterator) []string {
	t.Helper()
	defer it.Close()
	var out []string
	for it.Next() {
		out = append(out, string(it.Key())+"="+string(it.Value()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// perRangeScans is the concatenation of one Scan per range.
func perRangeScans(t *testing.T, snap *Snapshot, ranges []Range) []string {
	t.Helper()
	var out []string
	for _, r := range ranges {
		out = append(out, drain(t, snap.Scan(r.Start, r.End))...)
	}
	return out
}

// modelScans is the concatenation, over ranges, of the model's entries in
// each range, in key order.
func modelScans(model map[string]string, ranges []Range) []string {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, r := range ranges {
		for _, k := range keys {
			if keyInRange([]byte(k), r.Start, r.End) {
				out = append(out, k+"="+model[k])
			}
		}
	}
	return out
}

// scanRangeLists returns hand-picked range lists over a key space of n keys
// (a 4 KiB block holds a few dozen of the tests' entries), then random ones:
// sorted and disjoint, as planned scans are, and arbitrary.
func scanRangeLists(rng *rand.Rand, n int) map[string][]Range {
	lists := map[string][]Range{
		"adjacent":         {keyRange(100, 200), keyRange(200, 300), keyRange(300, 301)},
		"empty":            {keyRange(500, 500), keyRange(600, 550), keyRange(10, 20)},
		"inverted-then-in": {keyRange(600, 550), keyRange(560, 570), keyRange(580, 590)},
		"same-block":       {keyRange(700, 702), keyRange(703, 705), keyRange(705, 706)},
		"block-spanning":   {keyRange(1000, 1800), keyRange(1900, 2600)},
		"open-ended":       {keyRange(-1, 50), keyRange(n-100, -1)},
		"everything":       {keyRange(-1, -1)},
		"past-last-key":    {keyRange(n-10, n+5000), {Start: []byte("z")}, {Start: []byte("z"), End: []byte("zz")}},
		"stop-then-past":   {keyRange(n-60, n-40), keyRange(n+10, n+20), keyRange(n-30, n-29)},
		"unsorted":         {keyRange(1500, 1600), keyRange(100, 200), keyRange(2000, 2001)},
		"overlapping":      {keyRange(1200, 1400), keyRange(1300, 1500), keyRange(1300, 1350), keyRange(-1, 40)},
	}
	for i := 0; i < 30; i++ {
		// Sorted and disjoint, some a single key wide.
		var sorted []Range
		for lo := rng.Intn(200); lo < n; lo += 1 + rng.Intn(400) {
			hi := lo + 1 + rng.Intn(60)
			sorted = append(sorted, keyRange(lo, hi))
			lo = hi
		}
		lists[fmt.Sprintf("sorted-%d", i)] = sorted
		// Arbitrary: any order, overlaps, empty and open ranges.
		arbitrary := make([]Range, 1+rng.Intn(12))
		for j := range arbitrary {
			a, b := rng.Intn(n+50)-25, rng.Intn(n+50)-25
			if a < 0 {
				a = -1
			}
			if b < 0 {
				b = -1
			}
			arbitrary[j] = keyRange(a, b)
		}
		lists[fmt.Sprintf("arbitrary-%d", i)] = arbitrary
	}
	return lists
}

// TestScanRangesMatchesPerRange checks that one ScanRanges iterator yields
// exactly the concatenation of one Scan per range, over three tables and two
// frozen memtables holding overwrites and tombstones; then that it still
// does while a writer flushes and compacts under the snapshots it reads.
func TestScanRangesMatchesPerRange(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(38))
	lists := scanRangeLists(rng, n)

	t.Run("tables-and-memtables", func(t *testing.T) {
		db := newTestDB(t, Options{CompactAt: -1})
		model := map[string]string{}
		write := func(round, puts, dels int) {
			for i := 0; i < puts; i++ {
				k := scanKey(rng.Intn(n))
				v := fmt.Sprintf("r%d-%d-%040d", round, i, rng.Int63())
				if err := db.Put(k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = v
			}
			for i := 0; i < dels; i++ {
				k := scanKey(rng.Intn(n))
				if err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, string(k))
			}
		}
		for round := 0; round < 3; round++ {
			write(round, 1200, 150*round)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Two frozen memtables: each snapshot freezes the active one.
		write(3, 200, 60)
		first, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		_ = first.Close()
		write(4, 200, 60)
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if len(snap.tables) < 3 || len(snap.mems) < 2 {
			t.Fatalf("snapshot holds %d tables and %d memtables, want at least 3 and 2", len(snap.tables), len(snap.mems))
		}

		for name, ranges := range lists {
			scans := db.Stats().Scans
			got := drain(t, snap.ScanRanges(ranges))
			if d := db.Stats().Scans - scans; d != 1 {
				t.Errorf("%s: ScanRanges counted %d scans, want 1", name, d)
			}
			if want := modelScans(model, ranges); !slices.Equal(got, want) {
				t.Errorf("%s: ScanRanges yields %d entries, the model %d", name, len(got), len(want))
			}
			if per := perRangeScans(t, snap, ranges); !slices.Equal(got, per) {
				t.Errorf("%s: ScanRanges yields %d entries, one Scan per range %d", name, len(got), len(per))
			}
		}
	})

	t.Run("beside-flushing-writer", func(t *testing.T) {
		db := newTestDB(t, Options{MemtableBytes: 16 << 10, CompactAt: 3})
		ops := 6000
		if testing.Short() {
			ops = 2000
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			wrng := rand.New(rand.NewSource(7))
			for i := 0; i < ops; i++ {
				k := scanKey(wrng.Intn(n))
				var err error
				if i%5 == 0 {
					err = db.Delete(k)
				} else {
					err = db.Put(k, []byte(fmt.Sprintf("w%d-%030d", i, wrng.Int63())))
				}
				if err == nil && i%300 == 299 {
					err = db.Flush()
				}
				if err != nil {
					t.Errorf("writer op %d: %v", i, err)
					return
				}
			}
		}()

		names := make([]string, 0, len(lists))
		for name := range lists {
			names = append(names, name)
		}
		sort.Strings(names)
		// Snapshots are read for as long as the writer runs, and at least ten.
		for i := 0; ; i++ {
			finished := false
			select {
			case <-done:
				finished = true
			default:
			}
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// The oracle is one open scan of the same snapshot.
			model := map[string]string{}
			for _, kv := range drain(t, snap.Scan(nil, nil)) {
				k, v, _ := strings.Cut(kv, "=")
				model[k] = v
			}
			for j := 0; j < 4; j++ {
				name := names[(4*i+j)%len(names)]
				ranges := lists[name]
				got := drain(t, snap.ScanRanges(ranges))
				if want := modelScans(model, ranges); !slices.Equal(got, want) {
					t.Errorf("snapshot %d, %s: ScanRanges yields %d entries, the open scan %d", i, name, len(got), len(want))
				}
				if per := perRangeScans(t, snap, ranges); !slices.Equal(got, per) {
					t.Errorf("snapshot %d, %s: ScanRanges yields %d entries, one Scan per range %d", i, name, len(got), len(per))
				}
			}
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
			if finished && i >= 9 {
				break
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := db.Stats(); st.Flushes == 0 || st.Compactions == 0 {
			t.Fatalf("stats %+v: the writer never flushed or compacted under the snapshots", st)
		}
	})
}
