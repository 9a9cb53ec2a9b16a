package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

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
// rows, each once, in batches of at most batchRows from both regions, and its
// accounting must add up to what emit saw.
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
	got := append([]string(nil), sc.entries...)
	sort.Strings(got)
	var want []string
	var wantBytes int64
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("row%05d", i), fmt.Sprintf("val%d", i)
		want = append(want, k)
		wantBytes += int64(len(k) + len(v))
	}
	if !equalStrings(got, want) {
		t.Fatal("streamed row set differs from the loaded rows")
	}
	if res.RowsScanned != n || res.RowsReturned != n || res.BytesShipped != wantBytes || res.RPCs != 2 {
		t.Fatalf("accounting scanned=%d returned=%d bytes=%d rpcs=%d, want %d/%d/%d/2",
			res.RowsScanned, res.RowsReturned, res.BytesShipped, res.RPCs, n, n, wantBytes)
	}
}

// streamFaultCluster is scanFaultCluster with enough rows per region for
// several batches (400 rows at batchRows = 64) and values fat enough that each
// region spans dozens of 4 KiB SSTable blocks: block reads then interleave
// with batch emission, so injected faults fire mid-stream, after rows have
// already been delivered — even with the producer running its full queue
// depth (three batches) ahead of the consumer.
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

// TestScanStreamTransientResume injects transient faults that first fire only
// after the faulty region has already emitted rows: the retry must resume
// after the last delivered key — every row exactly once, retries recorded.
func TestScanStreamTransientResume(t *testing.T) {
	c, fsys, keys := streamFaultCluster(t)
	region0 := c.Regions()[0].dir
	var armed atomic.Bool
	var failures atomic.Int32
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpRead && strings.HasPrefix(op.Path, region0) &&
			armed.Load() && failures.Add(1) <= 2 {
			return vfs.FaultTransient
		}
		return vfs.FaultNone
	})
	seen := map[string]int{}
	fromRegion0 := 0
	res, err := scanStream(context.Background(), t, c, ScanRequest{Ranges: []KeyRange{{}}},
		func(b ScanBatch) error {
			for _, e := range b.Entries {
				seen[string(e.Key)]++
				if e.Key[0] == 'a' {
					fromRegion0++
				}
			}
			// Arm the fault only once region 0 has streamed a prefix, so the
			// retry must resume mid-region rather than restart cleanly.
			if fromRegion0 > 0 {
				armed.Store(true)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("stream with transient faults: %v", err)
	}
	if failures.Load() == 0 {
		t.Fatal("injection never fired; test is vacuous")
	}
	if res.Retries == 0 {
		t.Fatal("stream succeeded without recording retries")
	}
	if len(seen) != len(keys) {
		t.Fatalf("saw %d distinct rows, want %d", len(seen), len(keys))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("row %q delivered %d times after retry resume", k, n)
		}
	}
}

// TestScanStreamStrictRegionFailure: a permanent mid-stream region failure in
// strict mode must surface as a RegionError without deadlocking the
// producer, and the retries burned on the ultimately-failing region must
// still be counted.
func TestScanStreamStrictRegionFailure(t *testing.T) {
	c, fsys, _ := scanFaultCluster(t)
	r0 := c.Regions()[0]
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpRead && strings.HasPrefix(op.Path, r0.dir) {
			return vfs.FaultTransient // transient forever: retries, then gives up
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
	stats, err2 := c.Stats()
	if err2 != nil {
		t.Fatal(err2)
	}
	if stats.Retries == 0 {
		t.Fatal("retries burned on the failing region were not counted")
	}
}

// TestScanStreamAllowPartialDegrades: with AllowPartial a failing region is
// reported in RegionErrors while the surviving region's rows still stream.
func TestScanStreamAllowPartialDegrades(t *testing.T) {
	c, fsys, keys := scanFaultCluster(t)
	r0 := c.Regions()[0]
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpRead && strings.HasPrefix(op.Path, r0.dir) {
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})
	sc := &streamCollect{}
	res, err := scanStream(context.Background(), t, c, ScanRequest{Ranges: []KeyRange{{}}, AllowPartial: true}, sc.emit)
	if err != nil {
		t.Fatalf("partial stream failed outright: %v", err)
	}
	if len(res.RegionErrors) != 1 || res.RegionErrors[0].RegionID != r0.ID() {
		t.Fatalf("RegionErrors = %v, want one naming region %d", res.RegionErrors, r0.ID())
	}
	var wantSurvivors int
	for _, k := range keys {
		if k[0] >= 'm' {
			wantSurvivors++
		}
	}
	// Every read of region 0 fails, so it delivers nothing at all: what
	// streams is exactly the surviving region's rows.
	for _, k := range sc.entries {
		if k[0] < 'm' {
			t.Fatalf("row %q delivered from the region whose every read fails", k)
		}
	}
	if len(sc.entries) != wantSurvivors {
		t.Fatalf("surviving region streamed %d rows, want %d", len(sc.entries), wantSurvivors)
	}
}

// TestScanStreamEmitErrorAborts: a consumer error must abort the scan
// promptly, be returned verbatim, and never be retried or recorded as a
// region failure.
func TestScanStreamEmitErrorAborts(t *testing.T) {
	c, _, _ := streamFaultCluster(t)
	sentinel := errors.New("consumer is full")
	batches := 0
	res, err := scanStream(context.Background(), t, c, ScanRequest{Ranges: []KeyRange{{}}, AllowPartial: true},
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
// randomized mid-stream transient and permanent faults under AllowPartial.
// Invariants: no duplicated or phantom rows, failed regions reported, and a
// fault-free pass delivers everything. Runs in the torture group under -race.
func TestScanStreamTortureMidStreamFaults(t *testing.T) {
	c, fsys, keys := streamFaultCluster(t)
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
	}
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		mode := iter % 3 // 0: fault-free, 1: transient burst, 2: permanent region failure
		var region string
		regionID := -1
		if mode != 0 {
			r := c.Regions()[rng.Intn(2)]
			region = r.dir
			regionID = r.ID()
		}
		var remaining atomic.Int32
		remaining.Store(int32(rng.Intn(4)))
		fsys.SetInject(func(op vfs.Op) vfs.Fault {
			if op.Kind != vfs.OpRead || !strings.HasPrefix(op.Path, region) {
				return vfs.FaultNone
			}
			switch mode {
			case 1:
				if remaining.Add(-1) >= 0 {
					return vfs.FaultTransient
				}
			case 2:
				return vfs.FaultErr
			}
			return vfs.FaultNone
		})
		seen := map[string]int{}
		res, err := scanStream(context.Background(), t, c, ScanRequest{Ranges: []KeyRange{{}}, AllowPartial: true},
			func(b ScanBatch) error {
				for _, e := range b.Entries {
					seen[string(e.Key)]++
				}
				return nil
			})
		if err != nil {
			t.Fatalf("iter %d (mode %d): %v", iter, mode, err)
		}
		for k, n := range seen {
			if !want[k] {
				t.Fatalf("iter %d: phantom row %q", iter, k)
			}
			if n != 1 {
				t.Fatalf("iter %d: row %q delivered %d times", iter, k, n)
			}
		}
		switch mode {
		case 0:
			if len(res.RegionErrors) != 0 || len(seen) != len(keys) {
				t.Fatalf("iter %d: fault-free pass lost rows (%d/%d, %d region errors)",
					iter, len(seen), len(keys), len(res.RegionErrors))
			}
		case 2:
			if len(res.RegionErrors) != 1 || res.RegionErrors[0].RegionID != regionID {
				t.Fatalf("iter %d: RegionErrors = %v, want one for region %d", iter, res.RegionErrors, regionID)
			}
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
