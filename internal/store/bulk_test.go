package store_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/vfs"
	"repro/internal/xzstar"
)

// Bulk loads: a PutBatch whose share for one shard fills a memtable (4 MiB,
// kv's default) reaches that shard's region as one batch big enough to become
// a table of its own, with no WAL record, flush or compaction.

// memtableBytes is kv's default memtable size, the ingest threshold of the
// stores these tests open.
const memtableBytes = 4 << 20

// longTrack is an n-point random walk inside the 0.1-wide square at (x, y).
func longTrack(rng *rand.Rand, id string, x, y float64, n int) *traj.Trajectory {
	pts := make([]geo.Point, n)
	px, py := x+0.05, y+0.05
	for i := range pts {
		px = min(max(px+(rng.Float64()-0.5)*0.01, x), x+0.1)
		py = min(max(py+(rng.Float64()-0.5)*0.01, y), y+0.1)
		pts[i] = geo.Point{X: px, Y: py}
	}
	return traj.New(id, pts)
}

// shardOf is the shard a store puts id's rows in.
func shardOf(s *store.Store, id string) byte { return s.RowKey(xzstar.Entry{}, id)[0] }

// bulkInShard returns n-point tracks with fresh ids, all in shard, until at
// six bytes a point (the least a stored row takes) their rows would pass
// 1.25·bytes.
func bulkInShard(s *store.Store, rng *rand.Rand, shard byte, bytes, n int) []*traj.Trajectory {
	var out []*traj.Trajectory
	for i, pts := 0, 0; pts*6 < bytes*5/4; i++ {
		id := fmt.Sprintf("bulk%05d", i)
		if shardOf(s, id) != shard {
			continue
		}
		out = append(out, longTrack(rng, id, 0.6, 0.1, n))
		pts += n
	}
	return out
}

// The same trajectories loaded in one PutBatch — every region's share past a
// memtable, so every region ingests it as a table — and in small PutBatch
// calls through the WAL, each followed by Flush and Compact, leave every
// region with the same table, byte for byte: the same keys, values and kinds
// in the same blocks under the same bloom filter.
func TestIngestLoadMatchesWALLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var ts []*traj.Trajectory
	for i, pts := 0, 0; pts*6 < 2*memtableBytes*5/4; i++ {
		ts = append(ts, longTrack(rng, fmt.Sprintf("t%05d", i), rng.Float64()*0.9, rng.Float64()*0.9, 1000))
		pts += 1000
	}
	tables := make([]map[string]string, 2)
	for i, chunk := range []int{len(ts), 50} {
		dir := t.TempDir()
		s, err := store.Open(store.Config{Dir: dir, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < len(ts); start += chunk {
			if err := s.PutBatch(ts[start:min(start+chunk, len(ts))]); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.Cluster().Stats()
		if err != nil {
			t.Fatal(err)
		}
		if ingested := st.KV.GroupCommits == 0; ingested != (i == 0) {
			t.Fatalf("load in chunks of %d: %d group commits, %d flushes", chunk, st.KV.GroupCommits, st.KV.Flushes)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		tables[i] = regionTables(t, dir)
	}
	if len(tables[0]) != 2 {
		t.Fatalf("ingest load left %d regions with one table each, want 2", len(tables[0]))
	}
	for region, table := range tables[0] {
		if tables[1][region] != table {
			t.Fatalf("%s: the ingested table (%d bytes) differs from the WAL-loaded one (%d bytes)", region, len(table), len(tables[1][region]))
		}
	}
}

// regionTables maps each region directory under dir to the bytes of its one
// table, failing if a region holds more than one.
func regionTables(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	regions, err := vfs.Default.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range regions {
		if !strings.HasPrefix(region, "region-") {
			continue
		}
		names, err := vfs.Default.List(filepath.Join(dir, region))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if !strings.HasSuffix(name, ".sst") {
				continue
			}
			if _, twice := out[region]; twice {
				t.Fatalf("%s holds more than one table after Compact", region)
			}
			data, err := vfs.ReadFile(vfs.Default, filepath.Join(dir, region, name))
			if err != nil {
				t.Fatal(err)
			}
			out[region] = string(data)
		}
	}
	return out
}

// Nearest and top-k searches with k above the store's size run beside a
// PutBatch that moves ids in both shards and fills one shard's region past a
// memtable, so that region ingests its share as a table while the other
// commits through the WAL. Every id stored before the batch appears exactly
// once in every answer, and each of the batch's new ids at most once.
func TestBulkPutBesideSearch(t *testing.T) {
	st, fixed := reputStore(t)
	var before []string
	for _, f := range fixed {
		before = append(before, f.ID)
	}
	var batch []*traj.Trajectory
	shards := map[byte]bool{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("m%d", i)
		if err := st.Put(segment(id, 0.6+float64(i)*0.08, 0.8, 8)); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, segment(id, 0.05+float64(i)*0.1, 0.6, 25))
		before = append(before, id)
		shards[shardOf(st, id)] = true
	}
	if len(shards) != 2 {
		t.Fatalf("fixture: the movers occupy %d of 2 shards", len(shards))
	}
	bulk := bulkInShard(st, rand.New(rand.NewSource(1)), 0, memtableBytes, 2000)
	batch = append(batch, bulk...)
	added := map[string]bool{}
	for _, b := range bulk {
		added[b.ID] = true
	}
	stats, err := st.Cluster().Stats()
	if err != nil {
		t.Fatal(err)
	}
	commits := stats.KV.GroupCommits

	done := make(chan error, 1)
	go func() { done <- st.PutBatch(batch) }()
	eng := query.New(st, dist.Frechet)
	k := len(before) + len(bulk) + 5
	searches := 0
	for finished := false; !finished; searches++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true // one more search, after the batch
		default:
		}
		q := query.Query{Kind: query.KindNearest, Point: geo.Point{X: 0.5, Y: 0.5}, K: k}
		if searches%2 == 1 {
			q = query.Query{Kind: query.KindTopK, Traj: batch[searches%4], K: k}
		}
		ms, _, err := eng.Search(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for _, m := range ms {
			seen[m.ID]++
			if seen[m.ID] > 1 {
				t.Fatalf("search %d (kind %d): %q appears twice", searches, q.Kind, m.ID)
			}
		}
		for _, id := range before {
			if seen[id] != 1 {
				t.Fatalf("search %d (kind %d): stored id %q appears %d times in %d matches", searches, q.Kind, id, seen[id], len(ms))
			}
		}
		for id := range seen {
			if !added[id] && !slices.Contains(before, id) {
				t.Fatalf("search %d: unknown id %q", searches, id)
			}
		}
		if finished && len(ms) != len(before)+len(bulk) {
			t.Fatalf("after the batch: %d matches for %d ids", len(ms), len(before)+len(bulk))
		}
	}
	t.Logf("%d searches beside a %d-trajectory PutBatch", searches, len(batch))
	if stats, err = st.Cluster().Stats(); err != nil {
		t.Fatal(err)
	}
	if got := stats.KV.GroupCommits - commits; got != 1 {
		t.Fatalf("the batch ran %d group commits; want 1 (the movers' shard), the bulk shard ingesting", got)
	}
}

// A PutBatch whose write fails in one shard's region leaves each of its
// trajectories fully stored (the other shards, written beside it) or fully
// absent (that shard), and Count and the value set agree with the rows on
// disk — live, and after a power loss.
func TestPutBatchShardFailure(t *testing.T) {
	fsys := vfs.NewFault()
	s := openTortureStore(t, fsys)
	m := newPutModel()
	var first, second []at
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("s%02d", i)
		first = append(first, at{id, i % 5})
		second = append(second, at{id, 5 + i%5}) // every id moves
		second = append(second, at{fmt.Sprintf("n%02d", i), i % 10})
	}
	m.put(s, first...)
	failing := regionHolding(t, s, s.RowKey(xzstar.Entry{}, "s00"))
	prefix := filepath.Join(putTortureDir, fmt.Sprintf("region-%04d", failing.ID())) + string(filepath.Separator)
	var once sync.Once
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		fault := vfs.FaultNone
		if op.Kind.Mutating() && strings.HasPrefix(op.Path, prefix) {
			once.Do(func() { fault = vfs.FaultErr })
		}
		return fault
	})
	m.put(s, second...)
	fsys.SetInject(nil)
	if len(m.pending["s00"]) == 0 {
		t.Fatal("the PutBatch did not fail")
	}
	checkPutModel(t, s, m, "live")
	stored, absent := 0, 0
	for _, a := range second {
		rec, err := s.GetByID(a.id)
		inFailing := regionHolding(t, s, s.RowKey(xzstar.Entry{}, a.id)) == failing
		switch {
		case err == nil && rec.Times[0] == m.pending[a.id][0]:
			if inFailing {
				t.Fatalf("%s, in the failing region, was stored", a.id)
			}
			stored++
		case inFailing && (err == nil || errors.Is(err, kv.ErrNotFound)):
			absent++
		default:
			t.Fatalf("%s: Get = %v, %v", a.id, rec, err)
		}
	}
	if stored == 0 || absent == 0 {
		t.Fatalf("%d trajectories stored and %d absent; want some of each", stored, absent)
	}
	_ = s.Close()
	fsys.Crash()
	s = openTortureStore(t, fsys)
	defer s.Close()
	checkPutModel(t, s, m, "reopened")
}
