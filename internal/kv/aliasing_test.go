package kv

import (
	"bytes"
	"fmt"
	"testing"
)

// These tests pin the iterator aliasing contract. Key()/Value() are the
// store's own bytes, a memtable node's or a data block's: the merge iterator
// hands out its sources' slices instead of copying every entry it walks, and
// a caller that ships a row copies it once (cluster.scanRegion). That is
// sound only because the store never writes a byte it has handed out:
// memtable values are replaced, not overwritten, and every data block is a
// fresh read that the block cache shares read-only. TestScanKeyAliasing pins
// that property across overwrites, flush and compaction, and
// TestScanAllocsIndependentOfRowsWalked pins what it buys: a scan's
// allocations do not grow with the rows it walks. A caller still may not rely
// on a slice past Next: the Iterator contract promises no more, and a
// retained slice keeps its whole block alive.

// fillEqualLen writes n keys of identical length.
func fillEqualLen(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("val-%04d", i))
		if err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanKeyAliasing: un-copied Key()/Value() slices, retained across Next,
// still hold their entries after every key is overwritten and the store
// flushes and compacts under the open scan.
func TestScanKeyAliasing(t *testing.T) {
	for _, flushed := range []bool{false, true} {
		name := "memtable"
		if flushed {
			name = "sstable"
		}
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, Options{})
			const n = 16
			fillEqualLen(t, db, n)
			if flushed {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			it := scanDB(db, nil, nil)
			defer it.Close()
			var keys, vals [][]byte
			for i := 0; it.Next(); i++ {
				keys = append(keys, it.Key()) // retained without a copy
				vals = append(vals, it.Value())
				if i == n/2 {
					// Mid-scan, rewrite every key with a value of the same
					// length, then push it all through a flush and a
					// compaction.
					for j := 0; j < n; j++ {
						if err := db.Put([]byte(fmt.Sprintf("key-%04d", j)), []byte(fmt.Sprintf("new-%04d", j))); err != nil {
							t.Fatal(err)
						}
					}
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := db.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if len(keys) != n {
				t.Fatalf("scan returned %d entries, want %d", len(keys), n)
			}
			for i := range keys {
				wantK, wantV := fmt.Sprintf("key-%04d", i), fmt.Sprintf("val-%04d", i)
				if string(keys[i]) != wantK || string(vals[i]) != wantV {
					t.Fatalf("retained entry %d = (%q,%q), want (%q,%q): the store wrote bytes it had handed out",
						i, keys[i], vals[i], wantK, wantV)
				}
			}
		})
	}
}

// TestScanAllocsIndependentOfRowsWalked: a scan that retains nothing
// allocates the same whether it walks 64 rows or 4,096. Values grow with the
// key, so a buffer the iterator copied entries into would grow with the scan.
// Rows sit in a table and, every seventh one overwritten, in the memtable, so
// the merge walks shadowed entries too.
func TestScanAllocsIndependentOfRowsWalked(t *testing.T) {
	db := newTestDB(t, Options{})
	const n = 4096
	value := func(i int, tag byte) []byte { return bytes.Repeat([]byte{tag}, 8+i/4) }
	for i := 0; i < n; i++ {
		if err := db.Put(scanKey(i), value(i, 'a')); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 7 {
		if err := db.Put(scanKey(i), value(i, 'b')); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	allocs := func(rows int) float64 {
		ranges := []Range{keyRange(0, rows)}
		return testing.AllocsPerRun(20, func() {
			it := snap.ScanRanges(ranges)
			got := 0
			for it.Next() {
				got++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			_ = it.Close()
			if got != rows {
				t.Fatalf("scan of %d rows yielded %d", rows, got)
			}
		})
	}
	few, many := allocs(64), allocs(n)
	t.Logf("allocations per scan: %.0f walking 64 rows, %.0f walking %d", few, many, n)
	if many > few+2 {
		t.Fatalf("a %d-row scan allocates %.0f, a 64-row scan %.0f: want within 2", n, many, few)
	}
}

// TestScanCopySurvives is the positive side of the contract: copying with
// append([]byte(nil), it.Key()...) before Next() yields stable, correct keys
// and values for the whole scan.
func TestScanCopySurvives(t *testing.T) {
	db := newTestDB(t, Options{})
	const n = 16
	fillEqualLen(t, db, n)
	// Split the data across memtable and one SSTable so the merge path with
	// multiple sources is exercised.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := n; i < 2*n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("val-%04d", i))
		if err := db.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}

	it := scanDB(db, nil, nil)
	defer it.Close()
	var keys, vals [][]byte
	for it.Next() {
		keys = append(keys, append([]byte(nil), it.Key()...))
		vals = append(vals, append([]byte(nil), it.Value()...))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2*n {
		t.Fatalf("scan returned %d entries, want %d", len(keys), 2*n)
	}
	for i := range keys {
		wantK := fmt.Sprintf("key-%04d", i)
		wantV := fmt.Sprintf("val-%04d", i)
		if string(keys[i]) != wantK || string(vals[i]) != wantV {
			t.Fatalf("entry %d = (%q,%q), want (%q,%q)", i, keys[i], vals[i], wantK, wantV)
		}
	}
}
