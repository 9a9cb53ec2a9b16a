package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/vfs"
)

// Cluster-level MVCC: a snapshot pins both the region topology and each
// region's kv snapshot, so a long scan is immune to splits — and a split's
// deferred teardown is immune to the scan.

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

// TestClusterSnapshotPinsAcrossSplits pins a snapshot, then ingests enough —
// from racing writers — to force region splits underneath it. The contract:
//
//   - Point-in-time: the snapshot's scans keep returning exactly the
//     pre-ingest rows, twice over, while the live topology is being replaced.
//   - Deferred teardown: split parents are retired, not destroyed — their
//     directories survive on disk while the snapshot pins them, and are
//     removed the moment the last pin releases.
//   - The live cluster is undisturbed: its topology stays gapless and its
//     own reads see the new rows throughout.
func TestClusterSnapshotPinsAcrossSplits(t *testing.T) {
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
	before := regionDirs(t, fsys, clusterTortureDir)
	liveBefore := len(c.Regions())

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := snapScanKeys(t, snap)
	if len(want) != 10 {
		t.Fatalf("pinned view holds %d rows, want 10", len(want))
	}

	// Ingest well past SplitThresholdBytes from racing writers, re-scanning
	// the pinned view mid-flight.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := []byte(strings.Repeat("x", 64))
			for i := 0; i < 60; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				if err := c.Put([]byte(k), val); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	mid := snapScanKeys(t, snap)
	wg.Wait()

	if got := len(c.Regions()); got <= liveBefore {
		t.Fatalf("ingest left %d regions (started with %d); no split happened — test is vacuous", got, liveBefore)
	}
	// The original regions are all retired (every one absorbed enough bytes
	// to split); their directories must still exist while the snapshot pins
	// them, even though the live topology has moved on.
	onDisk := regionDirs(t, fsys, clusterTortureDir)
	retired := 0
	liveNames := make(map[string]bool)
	for _, r := range c.Regions() {
		liveNames[regionDirName(r.ID())] = true
	}
	for name := range before {
		if liveNames[name] {
			continue
		}
		retired++
		if !onDisk[name] {
			t.Fatalf("retired region dir %s removed while a snapshot still pins it", name)
		}
	}
	if retired == 0 {
		t.Fatalf("no pre-snapshot region was retired by the splits; dirs=%v", onDisk)
	}

	// Point-in-time, twice: mid-ingest and post-ingest scans of the pinned
	// view both equal the pre-ingest state.
	for pass, got := range [][]string{mid, snapScanKeys(t, snap)} {
		if len(got) != len(want) {
			t.Fatalf("pass %d: pinned view returned %d rows, want %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: pinned view diverges at row %d: %q vs %q", pass, i, got[i], want[i])
			}
		}
	}

	// The live cluster reads its own writes while the snapshot is open.
	if v, err := c.Get([]byte("w0-0000")); err != nil || string(v) != strings.Repeat("x", 64) {
		t.Fatalf("live read of ingested row: %q, %v", v, err)
	}
	checkTopology(t, c, 0)

	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	// Last pin gone: the deferred teardown runs and the retired parents'
	// directories disappear.
	final := regionDirs(t, fsys, clusterTortureDir)
	for name := range before {
		if liveNames[name] {
			continue
		}
		if final[name] {
			t.Fatalf("retired region dir %s still on disk after the last pin released", name)
		}
	}
	for name := range liveNames {
		if !final[name] {
			t.Fatalf("live region dir %s missing", name)
		}
	}

	// And the pinned rows are still in the live cluster, just resharded.
	rows, _ := mustScanRows(t, c, ScanRequest{Ranges: []KeyRange{{Start: []byte("seed-"), End: []byte("seed-~")}}})
	if len(rows) != 10 {
		t.Fatalf("live cluster holds %d seed rows after splits, want 10", len(rows))
	}
}

// TestClusterSnapshotOutlivesRetiredRegionReads drives the narrower kv
// guarantee end to end: reads through a cluster snapshot keep working after
// every region it pinned has been retired and replaced, because each pinned
// kv snapshot holds its own table references.
func TestClusterSnapshotOutlivesRetiredRegionReads(t *testing.T) {
	fsys := vfs.NewFault()
	cfg := clusterTortureConfig(fsys)
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put([]byte("pinned-key"), []byte("pinned-value")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	val := []byte(strings.Repeat("y", 64))
	for i := 0; i < 200; i++ {
		if err := c.Put([]byte(fmt.Sprintf("fill-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.Regions()) < 2 {
		t.Fatal("fill did not split; test is vacuous")
	}
	v, err := snap.Get([]byte("pinned-key"))
	if err != nil || string(v) != "pinned-value" {
		t.Fatalf("snapshot Get through retired region: %q, %v", v, err)
	}
	got := snapScanKeys(t, snap)
	if len(got) != 1 || got[0] != "pinned-key=pinned-value" {
		t.Fatalf("snapshot scan through retired region = %v, want the one pinned row", got)
	}
}
