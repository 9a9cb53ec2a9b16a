package store_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/vfs"
	"repro/internal/xzstar"
)

// TestRegionFailureFailsSearches: when every read of one region fails, a
// threshold search and a top-k search through the engine each fail with a
// *cluster.RegionError naming that region and its key range, and return no
// matches — never an answer missing the region's rows.
func TestRegionFailureFailsSearches(t *testing.T) {
	const dir = "/db"
	fsys := vfs.NewFault()
	s, err := store.Open(store.Config{Dir: dir, Shards: 4, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	data := gen.TDrive(gen.TDriveOptions{Seed: 27, N: 300})
	if err := s.PutBatch(data); err != nil {
		t.Fatal(err)
	}
	// Flushed rows live in SSTables, so a scan reads them from the
	// filesystem; nothing has read them yet, so no block is cached.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	q := data[42]
	failing := regionHolding(t, s, s.RowKey(xzstar.Entry{}, q.ID))
	prefix := filepath.Join(dir, fmt.Sprintf("region-%04d", failing.ID())) + string(filepath.Separator)
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind == vfs.OpRead && strings.HasPrefix(op.Path, prefix) {
			return vfs.FaultErr
		}
		return vfs.FaultNone
	})

	e := query.New(s, dist.Frechet)
	for _, search := range []struct {
		name string
		run  func() ([]query.Result, *query.Stats, error)
	}{
		{"threshold", func() ([]query.Result, *query.Stats, error) {
			return e.ThresholdContext(context.Background(), q, gen.DegreesToNorm(0.01))
		}},
		{"topk", func() ([]query.Result, *query.Stats, error) {
			return e.TopKContext(context.Background(), q, 5)
		}},
	} {
		matches, _, err := search.run()
		if matches != nil {
			t.Errorf("%s: %d matches alongside a region failure, want nil", search.name, len(matches))
		}
		var re *cluster.RegionError
		if !errors.As(err, &re) {
			t.Errorf("%s: error %v (%T) does not wrap a *cluster.RegionError", search.name, err, err)
			continue
		}
		if re.RegionID != failing.ID() || !bytes.Equal(re.Start, failing.Start()) || !bytes.Equal(re.End, failing.End()) {
			t.Errorf("%s: RegionError names region %d [%q, %q), want %d [%q, %q)", search.name,
				re.RegionID, re.Start, re.End, failing.ID(), failing.Start(), failing.End())
		}
	}
}

// regionHolding returns the region whose key range holds key.
func regionHolding(t *testing.T, s *store.Store, key []byte) *cluster.Region {
	t.Helper()
	for _, r := range s.Cluster().Regions() {
		if (r.Start() == nil || bytes.Compare(key, r.Start()) >= 0) && (r.End() == nil || bytes.Compare(key, r.End()) < 0) {
			return r
		}
	}
	t.Fatalf("no region holds key %q", key)
	return nil
}

// A data row's key is shard ‖ index value ‖ 0 ‖ tid. A trajectory's id row
// is its one other row: in the same region, and above every index value's
// data rows, so no planned range reaches it.
func TestRowKeyShape(t *testing.T) {
	s, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	dataKeys := map[string][]byte{}
	for i, id := range []string{"abc", "t1", "t2", "t3", "t4", "t5", "t6", "t7"} {
		x := 0.1 * float64(i)
		tr := traj.New(id, []geo.Point{{X: x, Y: 0.5}, {X: x + 0.01, Y: 0.51}})
		if err := s.Put(tr); err != nil {
			t.Fatal(err)
		}
		dataKeys[id] = s.RowKey(s.Index().Assign(tr.Points), id)
	}
	key := dataKeys["abc"]
	// shard byte + 8 value bytes + separator + tid
	if len(key) != 1+8+1+3 {
		t.Fatalf("key length = %d", len(key))
	}
	if int(key[0]) >= 4 {
		t.Fatalf("shard byte %d out of range", key[0])
	}
	if key[9] != 0 {
		t.Fatal("missing separator")
	}
	if string(key[10:]) != "abc" {
		t.Fatalf("tid suffix = %q", key[10:])
	}

	snap, err := s.Cluster().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var keys [][]byte
	if _, err := snap.ScanStream(context.Background(), cluster.StreamRequest{ScanRequest: cluster.ScanRequest{Ranges: []cluster.KeyRange{{}}}},
		func(b cluster.ScanBatch) error {
			for _, e := range b.Entries {
				keys = append(keys, e.Key)
			}
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2*len(dataKeys) {
		t.Fatalf("%d rows stored for %d trajectories, want a data row and an id row each", len(keys), len(dataKeys))
	}
	top, err := xzstar.New(xzstar.MaxResolutionLimit)
	if err != nil {
		t.Fatal(err)
	}
	for id, key := range dataKeys {
		i := slices.IndexFunc(keys, func(k []byte) bool { return !bytes.Equal(k, key) && bytes.HasSuffix(k, []byte(id)) })
		if i < 0 {
			t.Fatalf("no id row for %s among %q", id, keys)
		}
		idKey := keys[i]
		if regionHolding(t, s, idKey) != regionHolding(t, s, key) {
			t.Fatalf("id row %q and data row %q lie in different regions", idKey, key)
		}
		// Above the data rows of every index value at the largest resolution.
		above := binary.BigEndian.AppendUint64([]byte{key[0]}, uint64(top.TotalIndexSpaces()))
		if bytes.Compare(idKey, above) <= 0 {
			t.Fatalf("id row %q sorts below %q, the key of index value %d", idKey, above, top.TotalIndexSpaces())
		}
	}
}
