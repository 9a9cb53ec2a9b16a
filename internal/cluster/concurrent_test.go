package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/kv"
	"repro/internal/vfs"
	"repro/internal/vfs/vfstest"
)

// Cluster-level concurrent torture: racing writers drive every region's
// group-commit pipeline while background compactions run, and a fault or
// crash lands at a sampled filesystem operation. Each writer owns a disjoint
// key space with its own model (the model is single-writer); the pre-splits
// fall between and inside the writers' key spaces so region routing is
// exercised too.

const (
	clusterConcWriters = 4
	clusterConcRounds  = 70
)

func clusterConcurrentConfig(fsys vfs.FS) Config {
	cfg := clusterTortureConfig(fsys)
	cfg.SplitKeys = [][]byte{[]byte("w1"), []byte("w2-k006"), []byte("w3")}
	return cfg
}

func clusterConcKey(w, i int) string { return fmt.Sprintf("w%d-k%03d", w, i) }

func clusterConcOwner(key string) (int, bool) {
	if !strings.HasPrefix(key, "w") {
		return 0, false
	}
	rest := strings.TrimPrefix(key, "w")
	dash := strings.IndexByte(rest, '-')
	if dash < 0 {
		return 0, false
	}
	w, err := strconv.Atoi(rest[:dash])
	if err != nil || w < 0 || w >= clusterConcWriters {
		return 0, false
	}
	return w, true
}

// runClusterConcurrentWorkload races writers over disjoint key spaces.
// Writers carry on through errors — a cluster that healed or degraded must
// keep honoring acknowledgements.
func runClusterConcurrentWorkload(c *Cluster) []*vfstest.Model {
	models := make([]*vfstest.Model, clusterConcWriters)
	var wg sync.WaitGroup
	for w := 0; w < clusterConcWriters; w++ {
		models[w] = vfstest.NewModel()
		wg.Add(1)
		go func(w int, m *vfstest.Model) {
			defer wg.Done()
			for r := 0; r < clusterConcRounds; r++ {
				k := clusterConcKey(w, r%13)
				if r%11 == 7 {
					err := c.Delete([]byte(k))
					m.Delete(k, err == nil)
					continue
				}
				v := fmt.Sprintf("w%d-v%03d-%s", w, r, strings.Repeat("x", 40))
				err := c.Put([]byte(k), []byte(v))
				m.Put(k, v, err == nil)
			}
		}(w, models[w])
	}
	wg.Wait()
	return models
}

// countClusterConcurrentOps sizes the op range fault-free.
func countClusterConcurrentOps(t *testing.T) int {
	t.Helper()
	fsys := vfs.NewFault()
	c, err := Open(clusterConcurrentConfig(fsys))
	if err != nil {
		t.Fatalf("baseline open: %v", err)
	}
	runClusterConcurrentWorkload(c)
	if err := c.Flush(); err != nil {
		t.Fatalf("baseline flush: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("baseline close: %v", err)
	}
	ops := fsys.Ops()
	if ops < 200 {
		t.Fatalf("baseline produced only %d ops; workload too small", ops)
	}
	return ops
}

func checkClusterConcurrentRecovered(t *testing.T, fsys *vfs.FaultFS, models []*vfstest.Model, point int) {
	t.Helper()
	fsys.SetInject(nil)
	c, err := Open(clusterConcurrentConfig(fsys))
	if err != nil {
		t.Fatalf("fault point %d: reopen: %v", point, err)
	}
	defer c.Close()
	checkTopology(t, c, point)
	if err := c.Verify(); err != nil {
		t.Fatalf("fault point %d: Verify: %v", point, err)
	}
	get := func(key string) (string, bool, error) {
		v, err := c.Get([]byte(key))
		if err == kv.ErrNotFound {
			return "", false, nil
		}
		if err != nil {
			return "", false, err
		}
		return string(v), true, nil
	}
	for w, m := range models {
		if err := m.CheckAll(get); err != nil {
			t.Fatalf("fault point %d: writer %d: %v", point, w, err)
		}
	}
	rows, _, err := scanRows(t, c, ScanRequest{Ranges: []KeyRange{{}}})
	if err != nil {
		t.Fatalf("fault point %d: scan: %v", point, err)
	}
	for _, e := range rows {
		key := string(e.Key)
		w, ok := clusterConcOwner(key)
		if !ok || w >= len(models) {
			t.Fatalf("fault point %d: scan surfaced foreign key %q", point, key)
		}
		if err := models[w].Check(key, string(e.Value), true); err != nil {
			t.Fatalf("fault point %d: scan: %v", point, err)
		}
	}
}

func runClusterConcurrentTorture(t *testing.T, kind vfs.Fault, points []int) {
	t.Helper()
	for _, p := range points {
		point := p
		fsys := vfs.NewFault()
		fsys.SetInject(func(op vfs.Op) vfs.Fault {
			if op.N == point {
				return kind
			}
			return vfs.FaultNone
		})
		var models []*vfstest.Model
		c, err := Open(clusterConcurrentConfig(fsys))
		if err == nil {
			models = runClusterConcurrentWorkload(c)
			// Quiesce every region's background goroutines before the
			// simulated power loss, as a real process exit would.
			_ = c.Close()
		} else if kind == vfs.FaultCrash && !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("fault point %d: open failed non-crash: %v", point, err)
		}
		fsys.Crash()
		checkClusterConcurrentRecovered(t, fsys, models, point)
	}
}

func clusterConcSamplePoints(t *testing.T, total int) []int {
	t.Helper()
	samples := 32
	if testing.Short() {
		samples = 8
	}
	points := make([]int, 0, samples)
	for i := 0; i < samples; i++ {
		points = append(points, 1+i*total/samples)
	}
	return points
}

// TestClusterConcurrentCrashTorture pulls the power at sampled operations
// while writers race across regions mid-compaction.
func TestClusterConcurrentCrashTorture(t *testing.T) {
	points := clusterConcSamplePoints(t, countClusterConcurrentOps(t))
	runClusterConcurrentTorture(t, vfs.FaultCrash, points)
}

// TestClusterConcurrentErrorTorture injects each failure flavor at sampled
// operations under racing writers, then fails the power.
func TestClusterConcurrentErrorTorture(t *testing.T) {
	points := clusterConcSamplePoints(t, countClusterConcurrentOps(t))
	for _, kind := range []vfs.Fault{vfs.FaultErr, vfs.FaultTorn, vfs.FaultDiskFull} {
		kind := kind
		t.Run(fmt.Sprintf("fault%d", int(kind)), func(t *testing.T) {
			runClusterConcurrentTorture(t, kind, points)
		})
	}
}
