package kv

import (
	"bytes"
	"fmt"
	"testing"
)

// These tests pin the iterator aliasing contract: the slices returned by
// Key()/Value() are only valid until the next call to Next(). The merge
// iterator reuses one backing buffer per scan (append(m.key[:0], ...)), so a
// retained slice is silently overwritten. Nothing static polices the callers:
// a retained alias corrupts rows on the first scan, so every store, cluster
// and query suite fails on it (DESIGN.md §6). If the contract ever changes
// (per-entry allocation), TestScanKeyAliasing fails and the docs should be
// revisited.

// fillEqualLen writes n keys of identical length so the reused buffer never
// reallocates between entries and overwriting is deterministic.
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

func TestScanKeyAliasing(t *testing.T) {
	for _, flushed := range []bool{false, true} {
		name := "memtable"
		if flushed {
			name = "sstable"
		}
		t.Run(name, func(t *testing.T) {
			db := newTestDB(t, Options{})
			fillEqualLen(t, db, 16)
			if flushed {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			it := db.Scan(nil, nil)
			defer it.Close()
			if !it.Next() {
				t.Fatalf("empty scan: %v", it.Err())
			}
			retained := it.Key() // aliases the iterator's buffer — the bug under test
			first := append([]byte(nil), it.Key()...)

			if !it.Next() {
				t.Fatalf("scan ended after one entry: %v", it.Err())
			}
			second := it.Key()

			// The retained slice must now show the second key: Next()
			// overwrote the shared buffer in place.
			if !bytes.Equal(retained, second) {
				t.Errorf("retained Key() slice = %q after Next(), want it overwritten to %q; "+
					"buffer reuse contract changed", retained, second)
			}
			if bytes.Equal(retained, first) {
				t.Errorf("retained Key() slice still holds the first key %q after Next(); "+
					"iterator no longer reuses its buffer", first)
			}
		})
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

	it := db.Scan(nil, nil)
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
