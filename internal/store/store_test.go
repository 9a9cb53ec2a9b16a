package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/traj"
	"repro/internal/vfs"
	"repro/internal/xzstar"
)

func walk(rng *rand.Rand, id string, n int, scale float64) *traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64(), rng.Float64()
	for i := range pts {
		pts[i] = geo.Point{X: geo.Clamp01(x), Y: geo.Clamp01(y)}
		x += (rng.Float64() - 0.5) * scale
		y += (rng.Float64() - 0.5) * scale
	}
	return traj.New(id, pts)
}

func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// collected is one scan's accounting plus the rows it delivered, in key order.
type collected struct {
	*cluster.ScanResult
	Entries []kv.Entry
}

// collectRows streams ranges out of snap and gathers the delivered rows.
func collectRows(snap *Snapshot, ranges []xzstar.ValueRange, filter cluster.Filter) (*collected, error) {
	var rows []kv.Entry
	res, err := snap.ScanRangesStream(context.Background(), ranges, filter, 0, StreamOptions{}, func(batch []kv.Entry) error {
		rows = append(rows, batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return bytes.Compare(rows[i].Key, rows[j].Key) < 0 })
	return &collected{ScanResult: res, Entries: rows}, nil
}

// scanRows is collectRows over a fresh snapshot of s — the read path every
// production query takes.
func scanRows(s *Store, ranges []xzstar.ValueRange, filter cluster.Filter) (*collected, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	return collectRows(snap, ranges, filter)
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("missing dir must fail")
	}
	if _, err := Open(Config{Dir: t.TempDir(), MaxResolution: 99}); err == nil {
		t.Fatal("bad resolution must fail")
	}
}

// Open reads what the directory says about itself before it reads a row: a
// cluster directory that records no trajectory-store schema is refused, and so
// is a data row whose key is too short to hold an index value.
func TestOpenRefusesForeignDirectoryAndCorruptRowKey(t *testing.T) {
	dir := t.TempDir()
	cl, err := cluster.Open(cluster.Config{Dir: dir, Schema: "someone else's"})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if s, err := Open(Config{Dir: dir}); err == nil {
		s.Close()
		t.Fatal("Open accepted a directory with a foreign schema")
	} else if !strings.Contains(err.Error(), `"someone else's"`) {
		t.Fatalf("error does not quote the recorded schema: %v", err)
	}

	dir = t.TempDir()
	s := newTestStore(t, Config{Dir: dir, Shards: 2})
	if err := s.Cluster().Put([]byte{1, 0, 0, 7}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s, err := Open(Config{Dir: dir}); err == nil {
		s.Close()
		t.Fatal("Open accepted a data row with a 4-byte key")
	} else if !strings.Contains(err.Error(), "corrupt data row key") {
		t.Fatalf("error does not report the corrupt row: %v", err)
	}
}

// A directory of row format 1 kept its id rows under 0xFE in the last region.
// Open refuses it, naming both formats and what to do, and changes no file:
// the regions' WAL replay runs before the schema check, under a record format
// the old directory's WAL does not use.
func TestOpenRefusesOldRowFormat(t *testing.T) {
	const dir = "/old"
	fsys := vfs.NewFault()
	cl, err := cluster.Open(cluster.Config{
		Dir:       dir,
		FS:        fsys,
		SplitKeys: [][]byte{{1}, {2}, {3}},
		Schema:    fmt.Sprintf(schemaFormat, 4, 16, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	// One format-1 WAL record: an id row naming its data row, framed as
	// crc32 | length | kind | klen | key | vlen | value.
	payload := []byte{0, 4, 0xFE, 'a', 'b', 'c', 13, 3, 0, 0, 0, 0, 0, 0, 0, 42, 0, 'a', 'b', 'c'}
	record := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
	record = binary.LittleEndian.AppendUint32(record, uint32(len(payload)))
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, "region-0003", "wal.log"), append(record, payload...)); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, fsys, dir)

	if s, err := Open(Config{Dir: dir, FS: fsys}); err == nil {
		s.Close()
		t.Fatal("Open accepted a directory of row format 1")
	} else if msg := err.Error(); !strings.Contains(msg, "format 1") || !strings.Contains(msg, "format 2") || !strings.Contains(msg, "re-load") {
		t.Fatalf("refusal %q does not name both formats and say to re-load", msg)
	}
	if after := dirFiles(t, fsys, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Open changed the directory:\n before %q\n after  %q", before, after)
	}
}

// dirFiles maps every file under dir to its contents.
func dirFiles(t *testing.T, fsys vfs.FS, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	names, err := fsys.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if _, err := fsys.List(path); err == nil {
			maps.Copy(files, dirFiles(t, fsys, path))
			continue
		}
		data, err := vfs.ReadFile(fsys, path)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = string(data)
	}
	return files
}

func TestDefaults(t *testing.T) {
	s := newTestStore(t, Config{})
	cfg := s.Config()
	if cfg.Shards != 8 || cfg.MaxResolution != 16 || cfg.DPTolerance != 0.01 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	// Pre-split: one region per shard.
	if got := len(s.Cluster().Regions()); got != 8 {
		t.Fatalf("regions = %d, want 8", got)
	}
}

func TestPutAndScanRoundTrip(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(1))
	trajs := make([]*traj.Trajectory, 50)
	for i := range trajs {
		trajs[i] = walk(rng, fmt.Sprintf("t%03d", i), 10+rng.Intn(40), 0.01)
		if err := s.Put(trajs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 50 {
		t.Fatalf("count = %d", s.Count())
	}
	// Scan everything back through the value domain.
	res, err := scanRows(s, []xzstar.ValueRange{{Lo: 0, Hi: s.Index().TotalIndexSpaces()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 50 {
		t.Fatalf("scanned %d rows, want 50", len(res.Entries))
	}
	seen := map[string]bool{}
	for _, e := range res.Entries {
		rec, err := DecodeRow(e.Value)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		seen[rec.ID] = true
		if len(rec.Features.PointIdx) == 0 {
			t.Fatalf("record %s has no features", rec.ID)
		}
	}
	for _, tr := range trajs {
		if !seen[tr.ID] {
			t.Fatalf("trajectory %s lost", tr.ID)
		}
	}
}

func TestScanRangeSelectsByValue(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(2))
	// Store trajectories and remember their index values.
	vals := map[string]int64{}
	for i := 0; i < 40; i++ {
		tr := walk(rng, fmt.Sprintf("t%03d", i), 10, 0.005)
		vals[tr.ID] = s.Index().Assign(tr.Points).Value
		if err := s.Put(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Pick one trajectory's value and scan just it.
	for id, v := range vals {
		res, err := scanRows(s, []xzstar.ValueRange{{Lo: v, Hi: v + 1}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range res.Entries {
			rec, _ := DecodeRow(e.Value)
			if rec.ID == id {
				found = true
			}
			if vals[rec.ID] != v {
				t.Fatalf("scan of value %d returned trajectory with value %d", v, vals[rec.ID])
			}
		}
		if !found {
			t.Fatalf("trajectory %s not found at its own value", id)
		}
		break
	}
}

func TestServerSideFilterPushdown(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		if err := s.Put(walk(rng, fmt.Sprintf("t%03d", i), 10, 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := scanRows(s, []xzstar.ValueRange{{Lo: 0, Hi: s.Index().TotalIndexSpaces()}},
		func(key, value []byte) bool {
			rec, err := DecodeRow(value)
			return err == nil && rec.ID < "t010"
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 10 {
		t.Fatalf("filtered rows = %d, want 10", len(res.Entries))
	}
	if res.RowsScanned != 30 {
		t.Fatalf("rows scanned = %d, want 30", res.RowsScanned)
	}
}

func TestShardingSpreadsData(t *testing.T) {
	s := newTestStore(t, Config{Shards: 8})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		if err := s.Put(walk(rng, fmt.Sprintf("traj-%04d", i), 5, 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	// Every region must hold some rows (FNV over 400 ids across 8 shards).
	for _, r := range s.Cluster().Regions() {
		stats, err := s.Cluster().Stats()
		if err != nil {
			t.Fatal(err)
		}
		_ = stats
		_ = r
	}
	counts := make(map[int]int)
	res, err := scanRows(s, []xzstar.ValueRange{{Lo: 0, Hi: s.Index().TotalIndexSpaces()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Entries {
		counts[int(e.Key[0])]++
	}
	if len(counts) != 8 {
		t.Fatalf("rows landed in %d shards, want 8", len(counts))
	}
	for shard, n := range counts {
		if n < 10 {
			t.Fatalf("shard %d has only %d rows (skew)", shard, n)
		}
	}
}

func TestDistributionHistograms(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		scale := []float64{0.001, 0.01, 0.1}[rng.Intn(3)]
		if err := s.Put(walk(rng, fmt.Sprintf("t%04d", i), 10, scale)); err != nil {
			t.Fatal(err)
		}
	}
	resH, codeH := s.Distribution()
	var total int64
	for _, n := range resH {
		total += n
	}
	if total != 200 {
		t.Fatalf("resolution histogram sums to %d", total)
	}
	total = 0
	for _, n := range codeH {
		total += n
	}
	if total != 200 {
		t.Fatalf("code histogram sums to %d", total)
	}
	if codeH[0] != 0 {
		t.Fatal("position code 0 must never occur")
	}
}

func TestSelectivity(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if err := s.Put(walk(rng, fmt.Sprintf("t%04d", i), 10, 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	sel := s.Selectivity()
	if sel <= 0 || sel > 1 {
		t.Fatalf("selectivity = %v", sel)
	}
}

func TestHasValuesIn(t *testing.T) {
	s := newTestStore(t, Config{Shards: 2})
	tr := traj.New("only", []geo.Point{{X: 0.3, Y: 0.3}, {X: 0.31, Y: 0.31}})
	if err := s.Put(tr); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	v := s.Index().Assign(tr.Points).Value
	if !snap.HasValuesIn(v, v+1) {
		t.Fatal("stored value not found")
	}
	if snap.HasValuesIn(v+1, v+100) {
		t.Fatal("phantom values")
	}
	if !snap.HasValuesIn(0, s.Index().TotalIndexSpaces()) {
		t.Fatal("full range must contain the value")
	}
}

// Put is PutBatch of one: a store loaded by repeated Put and one loaded by
// PutBatch are the same store — same count, metadata, value set and rows —
// under first puts and under re-puts that move an id, whether the re-put
// arrives in a later call or twice inside one batch, and whether the batch
// reaches its regions through the WAL or, past a memtable, as a table.
func TestPutBatchEquivalentToPut(t *testing.T) {
	single := newTestStore(t, Config{Shards: 4})
	batched := newTestStore(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(8))
	trajs := make([]*traj.Trajectory, 60)
	for i := range trajs {
		trajs[i] = walk(rng, fmt.Sprintf("t%03d", i), 5+rng.Intn(20), 0.01)
	}
	// Every third id moves somewhere else, in a second call...
	var moved []*traj.Trajectory
	for i := 0; i < len(trajs); i += 3 {
		moved = append(moved, walk(rng, trajs[i].ID, 5+rng.Intn(20), 0.01))
	}
	// ...and a third call carries five ids twice; the later entry must win.
	var twice []*traj.Trajectory
	for i := 1; i < 15; i += 3 {
		twice = append(twice, walk(rng, trajs[i].ID, 8, 0.01))
	}
	for i := 1; i < 15; i += 3 {
		twice = append(twice, walk(rng, trajs[i].ID, 8, 0.01))
	}
	// A fourth call fills shard 0's region past a memtable (4 MiB, kv's
	// default), so that region takes it as a table: it moves the shard's old
	// ids, carries one of them twice, and adds long new ones.
	var big []*traj.Trajectory
	for _, tr := range trajs {
		if single.shardOf(tr.ID) == 0 {
			big = append(big, walk(rng, tr.ID, 5+rng.Intn(20), 0.01))
		}
	}
	big = append(big, walk(rng, big[0].ID, 12, 0.01))
	bigIDs := map[string]bool{}
	for i := 0; len(bigIDs) < 300; i++ {
		if id := fmt.Sprintf("b%04d", i); single.shardOf(id) == 0 {
			big = append(big, walk(rng, id, 2000, 0.01))
			bigIDs[id] = true
		}
	}
	calls := [][]*traj.Trajectory{trajs, moved, twice, big}

	for _, call := range calls {
		for _, tr := range call {
			if err := single.Put(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := batched.PutBatch(call); err != nil {
			t.Fatal(err)
		}
	}

	if want := int64(len(trajs) + len(bigIDs)); single.Count() != want || batched.Count() != want {
		t.Fatalf("count %d (Put) / %d (PutBatch), want %d: one row per id", single.Count(), batched.Count(), want)
	}
	if a, b := single.Selectivity(), batched.Selectivity(); a != b {
		t.Fatalf("selectivity %v vs %v", a, b)
	}
	r1, c1 := single.Distribution()
	r2, c2 := batched.Distribution()
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(c1, c2) {
		t.Fatalf("histograms differ: resolutions %v vs %v, codes %v vs %v", r1, r2, c1, c2)
	}
	full := []xzstar.ValueRange{{Lo: 0, Hi: single.Index().TotalIndexSpaces()}}
	var rows [2][]kv.Entry
	var sets [2][]int64
	for i, s := range []*Store{single, batched} {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		res, err := collectRows(snap, full, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows[i], sets[i] = res.Entries, snap.values.flatten()
		// Every id owns exactly one data row, and the value set is the rows'.
		ids, values := map[string]bool{}, map[int64]bool{}
		for _, e := range res.Entries {
			rec, err := DecodeRow(e.Value)
			if err != nil {
				t.Fatal(err)
			}
			if ids[rec.ID] {
				t.Fatalf("store %d: id %s owns two data rows", i, rec.ID)
			}
			ids[rec.ID] = true
			values[keyValue(e.Key)] = true
		}
		if len(sets[i]) != len(values) {
			t.Fatalf("store %d: snapshot lists %d values, the rows carry %d", i, len(sets[i]), len(values))
		}
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Fatalf("whole-plane scans differ: %d rows vs %d", len(rows[0]), len(rows[1]))
	}
	// The fourth call's data rows alone pass the memtable threshold, counted
	// as the memtable counts them, so shard 0's batch was ingested.
	bigBytes := 0
	for _, e := range rows[1] {
		if rec, _ := DecodeRow(e.Value); bigIDs[rec.ID] {
			bigBytes += len(e.Key) + len(e.Value) + 64
		}
	}
	if bigBytes < 4<<20 {
		t.Fatalf("the big call's rows take %d bytes, under a memtable; test is vacuous", bigBytes)
	}
	if !reflect.DeepEqual(sets[0], sets[1]) {
		t.Fatalf("snapshot value sets differ: %d values vs %d", len(sets[0]), len(sets[1]))
	}
	// A moved trajectory is gone from where it was.
	was := single.Index().Assign(trajs[0].Points).Value
	if now := single.Index().Assign(moved[0].Points).Value; now == was {
		t.Fatal("trajectory moved but its index value did not; test is vacuous")
	}
	for i, s := range []*Store{single, batched} {
		res, err := scanRows(s, []xzstar.ValueRange{{Lo: was, Hi: was + 1}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Entries {
			if rec, _ := DecodeRow(e.Value); rec.ID == trajs[0].ID {
				t.Fatalf("store %d still returns %s at its old index value", i, rec.ID)
			}
		}
	}
}

// Put and PutBatch fail closed on anything xzstar.Assign cannot place: the
// typed error comes back and nothing is written, even for the valid
// trajectories batched alongside.
func TestPutInvalidTrajectory(t *testing.T) {
	s := newTestStore(t, Config{})
	ok := geo.Point{X: 0.5, Y: 0.5}
	for name, tr := range map[string]*traj.Trajectory{
		"nil":          nil,
		"no points":    {ID: "e"},
		"NaN":          {ID: "n", Points: []geo.Point{ok, {X: math.NaN(), Y: 0.5}}},
		"+Inf":         {ID: "p", Points: []geo.Point{{X: 0.5, Y: math.Inf(1)}, ok}},
		"-Inf":         {ID: "m", Points: []geo.Point{{X: math.Inf(-1), Y: 0.5}}},
		"out of plane": {ID: "o", Points: []geo.Point{ok, {X: 0.5, Y: 1.0000001}}},
		"negative":     {ID: "g", Points: []geo.Point{{X: -1e-9, Y: 0.5}}},
	} {
		if err := s.Put(tr); !errors.Is(err, ErrInvalidTrajectory) {
			t.Errorf("Put(%s) = %v, want ErrInvalidTrajectory", name, err)
		}
		batch := []*traj.Trajectory{traj.New("fine", []geo.Point{ok}), tr}
		if err := s.PutBatch(batch); !errors.Is(err, ErrInvalidTrajectory) {
			t.Errorf("PutBatch(%s) = %v, want ErrInvalidTrajectory", name, err)
		}
	}
	if n := s.Count(); n != 0 {
		t.Fatalf("rejected writes stored %d trajectories", n)
	}
	// The closed boundary itself is in the plane.
	if err := s.Put(traj.New("corners", []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}})); err != nil {
		t.Fatalf("unit-square corners must be storable: %v", err)
	}
}

// TestValueCountsMatchRecount drives the value set's row counts — one per
// distinct value in the value set, a map entry only for shared values —
// through random batches of new ids, re-puts that move ids between values,
// batches that fail and roll back, and reopens, and after each step checks
// Count, Distribution, Selectivity and HasValuesIn against a recount of the
// rows on disk. (The store has no delete; a value loses rows by re-puts and
// by failed batches.)
func TestValueCountsMatchRecount(t *testing.T) {
	fsys := vfs.NewFault()
	cfg := Config{Dir: "/db", FS: fsys, Shards: 2, SyncWrites: true}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	// The value set never reorders a caller's slice, and adding then
	// removing the same rows restores it.
	vs := []int64{9, 3, 9, 1, 3, 9}
	s.mu.Lock()
	s.addValuesLocked(vs)
	if !reflect.DeepEqual(s.values.flatten(), []int64{1, 3, 9}) || !reflect.DeepEqual(s.shared, map[int64]int64{3: 1, 9: 2}) {
		t.Fatalf("after adding %v: values %v, shared %v", vs, s.values.flatten(), s.shared)
	}
	s.removeValuesLocked(vs)
	if len(s.values.flatten()) != 0 || len(s.shared) != 0 {
		t.Fatalf("after removing %v again: values %v, shared %v", vs, s.values.flatten(), s.shared)
	}
	s.mu.Unlock()
	if !reflect.DeepEqual(vs, []int64{9, 3, 9, 1, 3, 9}) {
		t.Fatalf("the value set reordered its caller's slice: %v", vs)
	}

	rng := rand.New(rand.NewSource(13))
	// Twelve fixed spots: trajectories put at one share its index value.
	spot := func(id string) *traj.Trajectory {
		x := 0.05 + 0.07*float64(rng.Intn(12))
		return traj.New(id, []geo.Point{{X: x, Y: 0.5}, {X: x + 0.02, Y: 0.52}})
	}
	trajectory := func(id string) *traj.Trajectory {
		if rng.Intn(2) == 0 {
			return spot(id)
		}
		return walk(rng, id, 8, []float64{0.001, 0.01, 0.1}[rng.Intn(3)])
	}
	var ids []string
	check := func(step string) {
		t.Helper()
		res, err := scanRows(s, []xzstar.ValueRange{{Lo: 0, Hi: math.MaxInt64}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[int64]int64{}
		for _, e := range res.Entries {
			rows[keyValue(e.Key)]++
		}
		if got := s.Count(); got != int64(len(res.Entries)) {
			t.Fatalf("%s: Count %d, rows on disk %d", step, got, len(res.Entries))
		}
		wantRes := make([]int64, s.cfg.MaxResolution+1)
		wantCodes := make([]int64, 11)
		distinct := make([]int64, 0, len(rows))
		for v, n := range rows {
			seq, code, err := s.ix.Decode(v)
			if err != nil {
				t.Fatal(err)
			}
			wantRes[seq.Len()] += n
			wantCodes[code] += n
			distinct = append(distinct, v)
		}
		gotRes, gotCodes := s.Distribution()
		if !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotCodes, wantCodes) {
			t.Fatalf("%s: Distribution %v / %v, recount %v / %v", step, gotRes, gotCodes, wantRes, wantCodes)
		}
		want := 0.0
		if len(res.Entries) > 0 {
			want = float64(len(rows)) / float64(len(res.Entries))
		}
		if got := s.Selectivity(); got != want {
			t.Fatalf("%s: Selectivity %v, recount %v", step, got, want)
		}
		sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		for i := 0; i < 200; i++ {
			lo := rng.Int63n(s.ix.TotalIndexSpaces())
			hi := lo + rng.Int63n(1<<uint(rng.Intn(40)))
			if i < len(distinct) {
				lo, hi = distinct[i]-int64(rng.Intn(2)), distinct[i]+int64(rng.Intn(2))
			}
			j := sort.Search(len(distinct), func(j int) bool { return distinct[j] >= lo })
			if want := j < len(distinct) && distinct[j] < hi; snap.HasValuesIn(lo, hi) != want {
				t.Fatalf("%s: HasValuesIn(%d, %d) = %v, recount %v", step, lo, hi, !want, want)
			}
		}
	}

	for round := 0; round < 12; round++ {
		var batch []*traj.Trajectory
		for i := 0; i < 10+rng.Intn(30); i++ { // new ids
			id := fmt.Sprintf("t%03d-%02d", round, i)
			ids = append(ids, id)
			batch = append(batch, trajectory(id))
		}
		for i := 0; i < len(ids)/4; i++ { // re-puts, some twice in one batch
			batch = append(batch, trajectory(ids[rng.Intn(len(ids))]))
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		check(fmt.Sprintf("round %d put", round))

		switch round % 3 {
		case 1: // a batch whose WAL writes fail: every shard rolls back
			fsys.SetInject(func(op vfs.Op) vfs.Fault {
				if op.Kind == vfs.OpWrite && strings.HasSuffix(op.Path, "wal.log") {
					return vfs.FaultErr
				}
				return vfs.FaultNone
			})
			var failing []*traj.Trajectory
			for i := 0; i < 20; i++ {
				failing = append(failing, trajectory(ids[rng.Intn(len(ids))]), trajectory(fmt.Sprintf("f%03d-%02d", round, i)))
			}
			if err := s.PutBatch(failing); err == nil {
				t.Fatalf("round %d: a batch whose WAL writes fail succeeded", round)
			}
			fsys.SetInject(nil)
			check(fmt.Sprintf("round %d failed batch", round))
		case 2: // reopen: the counts are rebuilt from the rows
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d reopen", round))
		}
	}
	if len(s.shared) == 0 {
		t.Fatal("no value is shared: the test never exercised the shared counts")
	}
}
