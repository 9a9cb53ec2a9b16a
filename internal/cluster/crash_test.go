package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/kv"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// Cluster-level torture: the fault points enumerate every filesystem operation
// of creating a pre-split cluster (MANIFEST commit, region stores) and of the
// per-region write, flush and compact paths under it. After each simulated
// crash the cluster must reopen with the configured topology and contents
// matching the acknowledged-writes model.

const clusterTortureDir = "ctorture"

func clusterTortureConfig(fsys vfs.FS) Config {
	return Config{
		Dir:       clusterTortureDir,
		FS:        fsys,
		SplitKeys: [][]byte{[]byte("k020"), []byte("k050")},
		Schema:    "torture",
		KV: kv.Options{
			SyncWrites:    true,
			MemtableBytes: 1 << 10,
			CompactAt:     3,
		},
	}
}

type clusterWorkload struct {
	c       *Cluster
	model   *vfstest.Model
	crashed bool
	// batchRegions is how many regions putBatch's keys routed to when it was
	// applied; countClusterFaultPoints requires ≥ 2, so the enumeration walks
	// the window between one region's WAL batch and the next one's.
	batchRegions int
}

func (w *clusterWorkload) sawCrash(err error) bool {
	if errors.Is(err, vfs.ErrCrashed) {
		w.crashed = true
	}
	return w.crashed
}

func (w *clusterWorkload) put(k, v string) {
	if w.crashed {
		return
	}
	err := w.c.Put([]byte(k), []byte(v))
	w.model.Put(k, v, err == nil)
	w.sawCrash(err)
}

func (w *clusterWorkload) del(k string) {
	if w.crashed {
		return
	}
	err := w.c.Delete([]byte(k))
	w.model.Delete(k, err == nil)
	w.sawCrash(err)
}

func (w *clusterWorkload) putBatch(keys, vals []string) {
	if w.crashed {
		return
	}
	entries := make([]kv.Entry, len(keys))
	for i := range keys {
		entries[i] = kv.Entry{Key: []byte(keys[i]), Value: []byte(vals[i])}
	}
	routed := map[int]bool{}
	for _, e := range entries {
		routed[w.c.regionIndex(e.Key)] = true
	}
	w.batchRegions = len(routed)
	err := w.c.Mutate(entries, nil)
	for i := range keys {
		w.model.Put(keys[i], vals[i], err == nil)
	}
	w.sawCrash(err)
}

func (w *clusterWorkload) flush() {
	if w.crashed {
		return
	}
	w.sawCrash(w.c.Flush())
}

func (w *clusterWorkload) compact() {
	if w.crashed {
		return
	}
	w.sawCrash(w.c.Compact())
}

// run drives enough volume through the three regions to flush and compact
// them, with overwrites, deletes, a batch spanning all three, and explicit
// flush/compact.
func (w *clusterWorkload) run() {
	val := func(i, round int) string {
		return fmt.Sprintf("value-%03d-%d-%s", i, round, strings.Repeat("x", 48))
	}
	for i := 0; i < 48; i++ {
		w.put(fmt.Sprintf("k%03d", i), val(i, 0))
	}
	w.flush()
	for i := 0; i < 24; i += 2 {
		w.put(fmt.Sprintf("k%03d", i), val(i, 1))
	}
	for i := 1; i < 16; i += 3 {
		w.del(fmt.Sprintf("k%03d", i))
	}
	var bkeys, bvals []string
	for i := 0; i < 8; i++ { // sorts before every k-key: the first region
		bkeys = append(bkeys, fmt.Sprintf("b%03d", i))
		bvals = append(bvals, val(i, 2))
	}
	for i := 48; i < 64; i++ { // the end of the middle region, then the last
		bkeys = append(bkeys, fmt.Sprintf("k%03d", i))
		bvals = append(bvals, val(i, 2))
	}
	w.putBatch(bkeys, bvals)
	w.compact()
	for i := 64; i < 80; i++ {
		w.put(fmt.Sprintf("k%03d", i), val(i, 3))
	}
	w.del("k004")
	w.flush()
}

// countClusterFaultPoints runs the workload fault-free, recording every
// mutating filesystem operation — those of the creating Open included.
func countClusterFaultPoints(t *testing.T) []int {
	t.Helper()
	fsys := vfs.NewFault()
	var points []int
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind.Mutating() {
			points = append(points, op.N)
		}
		return vfs.FaultNone
	})
	c, err := Open(clusterTortureConfig(fsys))
	if err != nil {
		t.Fatalf("baseline open: %v", err)
	}
	w := &clusterWorkload{c: c, model: vfstest.NewModel()}
	w.run()
	if w.crashed {
		t.Fatal("baseline run crashed without injection")
	}
	if w.batchRegions < 2 {
		t.Fatalf("putBatch routed to %d region(s); it must span regions so the fault points cover a partly applied Mutate", w.batchRegions)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("baseline close: %v", err)
	}
	if len(points) < 100 {
		t.Fatalf("workload produced only %d fault points", len(points))
	}
	return points
}

// checkTopology asserts the regions partition the whole key space: first
// start nil, last end nil, and each region's end equal to its successor's
// start.
func checkTopology(t *testing.T, c *Cluster, point int) {
	t.Helper()
	regions := c.Regions()
	if len(regions) == 0 {
		t.Fatalf("fault point %d: no regions", point)
	}
	if regions[0].Start() != nil {
		t.Fatalf("fault point %d: first region starts at %q, want unbounded", point, regions[0].Start())
	}
	if regions[len(regions)-1].End() != nil {
		t.Fatalf("fault point %d: last region ends at %q, want unbounded", point, regions[len(regions)-1].End())
	}
	for i := 1; i < len(regions); i++ {
		if !bytes.Equal(regions[i-1].End(), regions[i].Start()) {
			t.Fatalf("fault point %d: gap between region %d (end %q) and region %d (start %q)",
				point, regions[i-1].ID(), regions[i-1].End(), regions[i].ID(), regions[i].Start())
		}
	}
}

// checkClusterRecovered reopens the cluster with injection disarmed and
// verifies topology, integrity, and contents against the model.
func checkClusterRecovered(t *testing.T, fsys *vfs.FaultFS, model *vfstest.Model, point int) {
	t.Helper()
	fsys.SetInject(nil)
	cfg := clusterTortureConfig(fsys)
	c, err := Open(cfg)
	if err != nil {
		t.Fatalf("fault point %d: reopen: %v", point, err)
	}
	defer c.Close()
	checkTopology(t, c, point)
	if got, want := len(c.Regions()), len(cfg.SplitKeys)+1; got != want || c.Schema() != cfg.Schema {
		t.Fatalf("fault point %d: reopened with %d regions and schema %q, want %d and %q", point, got, c.Schema(), want, cfg.Schema)
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("fault point %d: Verify: %v", point, err)
	}
	err = model.CheckAll(func(key string) (string, bool, error) {
		v, err := c.Get([]byte(key))
		if err == kv.ErrNotFound {
			return "", false, nil
		}
		if err != nil {
			return "", false, err
		}
		return string(v), true, nil
	})
	if err != nil {
		t.Fatalf("fault point %d: %v", point, err)
	}
	rows, _, err := scanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}})
	if err != nil {
		t.Fatalf("fault point %d: scan: %v", point, err)
	}
	for _, e := range rows {
		if err := model.Check(string(e.Key), string(e.Value), true); err != nil {
			t.Fatalf("fault point %d: scan: %v", point, err)
		}
	}
}

// TestClusterCrashTorture simulates a power loss at every mutating filesystem
// operation — including every operation of the creating Open — and checks
// that reopening recovers the configured topology and all acknowledged data.
func TestClusterCrashTorture(t *testing.T) {
	points := strided(t, countClusterFaultPoints(t))
	for _, p := range points {
		point := p
		fsys := vfs.NewFault()
		fsys.SetInject(func(op vfs.Op) vfs.Fault {
			if op.N == point {
				return vfs.FaultCrash
			}
			return vfs.FaultNone
		})
		model := vfstest.NewModel()
		c, err := Open(clusterTortureConfig(fsys))
		if err == nil {
			w := &clusterWorkload{c: c, model: model}
			w.run()
			_ = c.Close() // in-memory teardown; the "disk" already crashed
		} else if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("fault point %d: open failed non-crash: %v", point, err)
		}
		checkClusterRecovered(t, fsys, model, point)
	}
}

// TestClusterCreationCrashTorture crashes at every filesystem operation of the
// Open that creates the directory — reads too, and never strided. What the
// crash leaves must hold no MANIFEST or a whole one, and must reopen as the
// configured cluster, empty.
func TestClusterCreationCrashTorture(t *testing.T) {
	fsys := vfs.NewFault()
	var points []int
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		points = append(points, op.N)
		return vfs.FaultNone
	})
	c, err := Open(clusterTortureConfig(fsys))
	if err != nil {
		t.Fatalf("baseline open: %v", err)
	}
	fsys.SetInject(nil)
	manifestPath := clusterTortureDir + "/" + manifestName
	whole, err := vfs.ReadFile(fsys, manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(points) < 10 {
		t.Fatalf("creating Open issued only %d filesystem operations", len(points))
	}
	for _, point := range points {
		fsys := vfs.NewFault()
		fsys.SetInject(func(op vfs.Op) vfs.Fault {
			if op.N == point {
				return vfs.FaultCrash
			}
			return vfs.FaultNone
		})
		if c, err := Open(clusterTortureConfig(fsys)); err == nil {
			_ = c.Close()
			t.Fatalf("fault point %d: Open survived its crash", point)
		} else if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("fault point %d: open failed non-crash: %v", point, err)
		}
		fsys.SetInject(nil)
		if got, err := vfs.ReadFile(fsys, manifestPath); err == nil && !bytes.Equal(got, whole) {
			t.Fatalf("fault point %d: crash left a partial MANIFEST %q", point, got)
		} else if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("fault point %d: read MANIFEST: %v", point, err)
		}
		checkClusterRecovered(t, fsys, vfstest.NewModel(), point)
		if got, _ := vfs.ReadFile(fsys, manifestPath); !bytes.Equal(got, whole) {
			t.Fatalf("fault point %d: MANIFEST after reopen %q, want %q", point, got, whole)
		}
		// The one commit there ever is either never happened, and the reopen
		// redid it, or was durable: Open has no temporary file to sweep.
		if _, err := vfs.ReadFile(fsys, manifestPath+".tmp"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("fault point %d: MANIFEST.tmp left behind after reopen (err=%v)", point, err)
		}
	}
}

// strided thins the fault-point list under -short, mirroring the kv suite.
func strided(t *testing.T, points []int) []int {
	t.Helper()
	if !testing.Short() {
		return points
	}
	stride := len(points)/40 + 1
	var out []int
	for i := 0; i < len(points); i += stride {
		out = append(out, points[i])
	}
	return out
}

// scanFaultCluster builds a two-region cluster whose sstable reads go to the
// filesystem (block cache disabled) so scan-time faults can be injected, and
// returns it with its fault FS and the loaded model keys.
func scanFaultCluster(t *testing.T) (*Cluster, *vfs.FaultFS, []string) {
	t.Helper()
	fsys := vfs.NewFault()
	cfg := Config{
		Dir:       clusterTortureDir,
		FS:        fsys,
		SplitKeys: [][]byte{[]byte("m")},
		KV:        kv.Options{BlockCacheBytes: -1}, // every block read hits the FS
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	var keys []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("a%03d", i) // region 0
		if err := c.Put([]byte(k), []byte("left-"+k)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("z%03d", i) // region 1
		if err := c.Put([]byte(k), []byte("right-"+k)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c, fsys, keys
}

// TestScanStrictFailsWithRegionError injects a permanent failure into one
// region: a strict scan must fail with a RegionError naming the region and
// its key range.
func TestScanStrictFailsWithRegionError(t *testing.T) {
	c, fsys, _ := scanFaultCluster(t)
	r0 := c.Regions()[0]
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpRead && strings.HasPrefix(op.Path, r0.dir) {
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})
	_, _, err := scanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}})
	if err == nil {
		t.Fatal("strict scan succeeded despite a permanently failing region")
	}
	var re *RegionError
	if !errors.As(err, &re) {
		t.Fatalf("error %v (%T) does not wrap a RegionError", err, err)
	}
	if re.RegionID != r0.ID() {
		t.Fatalf("RegionError names region %d, want %d", re.RegionID, r0.ID())
	}
	if !bytes.Equal(re.Start, r0.Start()) || !bytes.Equal(re.End, r0.End()) {
		t.Fatalf("RegionError bounds [%q,%q), want [%q,%q)", re.Start, re.End, r0.Start(), r0.End())
	}
	if !strings.Contains(err.Error(), "region 0") {
		t.Fatalf("error message %q does not identify the region", err.Error())
	}
}

// TestScanContextCancellation cancels the context up front: the scan must
// return the context's error, never a RegionError.
func TestScanContextCancellation(t *testing.T) {
	c, _, _ := scanFaultCluster(t)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := StreamRequest{ScanRequest: ScanRequest{Ranges: []KeyRange{{}}}}
	_, err = snap.ScanStream(ctx, req, func(ScanBatch) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	var re *RegionError
	if errors.As(err, &re) {
		t.Fatal("cancellation was misreported as a region failure")
	}
}
