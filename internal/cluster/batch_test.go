package cluster

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kv"
	"repro/internal/vfs"
)

func TestPutBatchRoutesAcrossRegions(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("m")}})
	entries := make([]Entry, 0, 100)
	for i := 0; i < 50; i++ {
		entries = append(entries, Entry{Key: []byte(fmt.Sprintf("a%03d", i)), Value: []byte("v")})
		entries = append(entries, Entry{Key: []byte(fmt.Sprintf("z%03d", i)), Value: []byte("v")})
	}
	if err := c.Mutate(entries, nil); err != nil {
		t.Fatal(err)
	}
	rows, _ := mustScanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}})
	if len(rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(rows))
	}
	// Both regions participated.
	regions := c.Regions()
	if _, err := regions[0].db.Get([]byte("a000")); err != nil {
		t.Error("first region missing its rows")
	}
	if _, err := regions[1].db.Get([]byte("z000")); err != nil {
		t.Error("second region missing its rows")
	}
}

func TestPutBatchClosed(t *testing.T) {
	c := newTestCluster(t, Config{})
	c.Close()
	err := c.Mutate([]Entry{{Key: []byte("k"), Value: []byte("v")}}, nil)
	if err != kv.ErrClosed {
		t.Fatalf("Mutate after close: %v", err)
	}
}

// fourRegionMutate opens a fresh four-region cluster with synced WALs on its
// own FaultFS and returns it with one mutation per region, listed against key
// order so that only Mutate's own ordering can put them right.
func fourRegionMutate(t *testing.T) (*Cluster, *vfs.FaultFS, []Entry) {
	t.Helper()
	fsys := vfs.NewFault()
	c, err := Open(Config{
		Dir:       clusterTortureDir,
		FS:        fsys,
		SplitKeys: [][]byte{[]byte("b"), []byte("c"), []byte("d")},
		KV:        kv.Options{SyncWrites: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	var entries []Entry
	for _, k := range []string{"c1", "a1", "d1", "b1", "a2", "d2"} {
		entries = append(entries, Entry{Key: []byte(k), Value: []byte("v-" + k)})
	}
	return c, fsys, entries
}

// Mutate applies its per-region batches in region key order: the filesystem
// operations of one multi-region Mutate are the same from run to run (so a
// torture suite's "fault point N" names one region's WAL, not a random one),
// and they walk the regions first to last.
func TestMutateOpTraceIsDeterministic(t *testing.T) {
	var first []string
	for run := 0; run < 20; run++ {
		c, fsys, entries := fourRegionMutate(t)
		var trace []string
		fsys.SetInject(func(op vfs.Op) vfs.Fault {
			if op.Kind.Mutating() {
				trace = append(trace, fmt.Sprintf("%s %s", op.Kind, op.Path))
			}
			return vfs.FaultNone
		})
		if err := c.Mutate(entries, nil); err != nil {
			t.Fatal(err)
		}
		fsys.SetInject(nil)
		if run == 0 {
			first = trace
			// The walk is in key order: each region's WAL is written and
			// synced before the next region's is touched.
			var dirs []string
			for _, line := range trace {
				dir := filepath.Base(filepath.Dir(strings.Fields(line)[1]))
				if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
					dirs = append(dirs, dir)
				}
			}
			want := []string{"region-0000", "region-0001", "region-0002", "region-0003"}
			if !equalStrings(dirs, want) {
				t.Fatalf("Mutate touched regions in order %v, want %v\ntrace: %q", dirs, want, trace)
			}
			continue
		}
		if !equalStrings(trace, first) {
			t.Fatalf("run %d: op trace differs from run 0\n got: %q\nwant: %q", run, trace, first)
		}
	}
}

// RPC batching: many ranges landing in one region cost one RPC.
func TestScanBatchesRangesPerRegion(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("row00500")}})
	loadRows(t, c, 1000)
	var ranges []KeyRange
	for i := 0; i < 20; i++ {
		start := fmt.Sprintf("row%05d", i*10)
		end := fmt.Sprintf("row%05d", i*10+5)
		ranges = append(ranges, KeyRange{Start: []byte(start), End: []byte(end)})
	}
	rows, res := mustScanRows(t, c, ScanRequest{Ranges: ranges})
	// All 20 ranges live in the first region: exactly one RPC.
	if res.RPCs != 1 {
		t.Fatalf("RPCs = %d, want 1", res.RPCs)
	}
	if len(rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(rows))
	}
}

// The handler pool bounds concurrency inside a region: with 1 handler and a
// sleep-heavy filter, concurrent scans serialize.
func TestHandlerPoolSerializes(t *testing.T) {
	c := newTestCluster(t, Config{HandlersPerRegion: 1})
	loadRows(t, c, 10)
	var inside, maxInside int
	var mu sync.Mutex
	filter := func(key, value []byte) bool {
		mu.Lock()
		inside++
		if inside > maxInside {
			maxInside = inside
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inside--
		mu.Unlock()
		return true
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := scanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}, Filter: filter}); err != nil {
				t.Errorf("scan: %v", err)
			}
		}()
	}
	wg.Wait()
	if maxInside > 1 {
		t.Fatalf("handler pool of 1 admitted %d concurrent scans", maxInside)
	}
}

func TestClusterVerify(t *testing.T) {
	c := newTestCluster(t, Config{SplitKeys: [][]byte{[]byte("m")}})
	loadRows(t, c, 100)
	c.Flush()
	if err := c.Verify(); err != nil {
		t.Fatalf("clean cluster must verify: %v", err)
	}
	c.Close()
	if err := c.Verify(); err != kv.ErrClosed {
		t.Fatalf("verify after close: %v", err)
	}
}
