package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/vfs"
)

// Cluster-level MVCC: a snapshot pins each region's kv snapshot, so a long
// scan is immune to the ingest racing it.

// regionDirs lists the region-* directory names currently under root.
func regionDirs(t *testing.T, fsys vfs.FS, root string) map[string]bool {
	t.Helper()
	names, err := fsys.List(root)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, n := range names {
		if strings.HasPrefix(n, "region-") {
			out[n] = true
		}
	}
	return out
}

// snapScanKeys scans the snapshot's full key range and returns key=value
// strings in key order.
func snapScanKeys(t *testing.T, snap *Snapshot) []string {
	t.Helper()
	rows, _, err := snapRows(t, snap, ScanRequest{Ranges: []KeyRange{{}}})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, e := range rows {
		out[i] = string(e.Key) + "=" + string(e.Value)
	}
	return out
}

// TestClusterSnapshotPointInTime pins a snapshot, then ingests from racing
// writers underneath it. The contract:
//
//   - Point-in-time: the snapshot's scans keep returning exactly the
//     pre-ingest rows, mid-ingest and after it, and so does its Get.
//   - The live cluster is undisturbed: its own reads see the new rows
//     throughout.
//   - The snapshot outlives Cluster.Close, as each kv snapshot outlives its
//     store.
func TestClusterSnapshotPointInTime(t *testing.T) {
	fsys := vfs.NewFault()
	c, err := Open(clusterTortureConfig(fsys))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("seed-%03d", i)
		if err := c.Put([]byte(k), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	want := snapScanKeys(t, snap)
	if len(want) != 10 {
		t.Fatalf("pinned view holds %d rows, want 10", len(want))
	}

	// Racing writers overwrite the seeds and add rows in every region (the
	// tiny torture memtable flushes and compacts under the snapshot), while
	// the pinned view is re-scanned mid-flight.
	val := strings.Repeat("x", 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				for _, k := range []string{fmt.Sprintf("a%d-%04d", w, i), fmt.Sprintf("k%03d-%d", i, w), fmt.Sprintf("seed-%03d", i%10)} {
					if err := c.Put([]byte(k), []byte(val)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	mid := snapScanKeys(t, snap)
	wg.Wait()

	for pass, got := range [][]string{mid, snapScanKeys(t, snap)} {
		if !equalStrings(got, want) {
			t.Fatalf("pass %d: pinned view returned %v, want %v", pass, got, want)
		}
	}
	if v, err := snap.Get([]byte("seed-003")); err != nil || string(v) != "base" {
		t.Fatalf("snapshot Get of an overwritten row: %q, %v", v, err)
	}
	if _, err := snap.Get([]byte("a0-0000")); err != kv.ErrNotFound {
		t.Fatalf("snapshot Get of a row written after it: %v, want ErrNotFound", err)
	}

	// The live cluster reads its own writes while the snapshot is open.
	for _, k := range []string{"a0-0000", "k059-3", "seed-003"} {
		if v, err := c.Get([]byte(k)); err != nil || string(v) != val {
			t.Fatalf("live read of ingested row %s: %q, %v", k, v, err)
		}
	}
	if rows, _ := mustScanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}}); len(rows) != 10+2*4*60 {
		t.Fatalf("live cluster holds %d rows, want %d", len(rows), 10+2*4*60)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := snapScanKeys(t, snap); !equalStrings(got, want) {
		t.Fatalf("pinned view after Cluster.Close returned %v, want %v", got, want)
	}
	if v, err := snap.Get([]byte("seed-003")); err != nil || string(v) != "base" {
		t.Fatalf("snapshot Get after Cluster.Close: %q, %v", v, err)
	}
}
