package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/store"
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
	failing := regionHolding(t, s, q.ID)
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

// regionHolding returns the region whose key range holds id's data rows:
// the one covering id's shard byte, which leads every row key.
func regionHolding(t *testing.T, s *store.Store, id string) *cluster.Region {
	t.Helper()
	key := s.RowKey(xzstar.Entry{}, id)
	for _, r := range s.Cluster().Regions() {
		if (r.Start() == nil || bytes.Compare(key, r.Start()) >= 0) && (r.End() == nil || bytes.Compare(key, r.End()) < 0) {
			return r
		}
	}
	t.Fatalf("no region holds key %q", key)
	return nil
}
