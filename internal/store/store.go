// Package store implements the trajectory table of Section IV-E: rows keyed
// by shard + XZ* index value + trajectory id, values carrying the points and
// the pre-computed DP features (the paper's points / dp-points / dp-mbrs
// columns), laid out over the range-partitioned cluster substrate.
package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/traj"
	"repro/internal/vfs"
	"repro/internal/xzstar"
)

// Config configures a trajectory store.
type Config struct {
	// Dir is the root directory. Required.
	Dir string
	// Shards is the hash fan-out of the row key (Section IV-E). Zero means the
	// value an existing directory was created with, and the paper's default
	// cluster value, 8, for a new one.
	Shards int
	// MaxResolution is the XZ* maximum resolution. Zero means the value an
	// existing directory was created with, and 16 (the paper's) for a new one.
	MaxResolution int
	// DPTolerance is the Douglas-Peucker distance for pre-computed features.
	// Default 0.01 (the paper's).
	DPTolerance float64
	// RPCLatency, Parallelism and HandlersPerRegion pass through to the
	// cluster layer.
	RPCLatency        time.Duration
	Parallelism       int
	HandlersPerRegion int
	// FS is the filesystem the store runs on (default the real one). Tests
	// use it to inject faults.
	FS vfs.FS
	// SyncWrites makes every acknowledged write durable (WAL fsync per
	// write/batch) in each region's store.
	SyncWrites bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 8
	}
	if out.MaxResolution <= 0 {
		out.MaxResolution = xzstar.DefaultResolution
	}
	if out.DPTolerance <= 0 {
		out.DPTolerance = 0.01
	}
	return out
}

// Store is a trajectory table.
type Store struct {
	cfg     Config
	ix      *xzstar.Index
	cluster *cluster.Cluster

	// The table's metadata record. applyRowsLocked is the only code that
	// writes it.
	mu     sync.Mutex
	count  int64           // data rows, one per trajectory id
	values map[int64]int64 // data rows per index value
	// sortedValues is the distinct index values, ascending. A published slice
	// is never mutated — a write that changes the distinct set installs a new
	// one — so Snapshot shares it instead of copying.
	sortedValues []int64
}

// schemaFormat is what a directory records about itself when it is created —
// the choices every later Open has to share to read its rows. rowFormat
// versions the row layout (row keys here, values in traj.EncodeRecord).
const (
	schemaFormat = "trass shards=%d max_resolution=%d row_format=%d"
	rowFormat    = 1
)

// Open creates a trajectory store, or opens the one in cfg.Dir at the shape it
// was created with: a Shards or MaxResolution left at zero adopts the recorded
// value, and one that differs from it is refused.
func Open(cfg Config) (*Store, error) {
	asked := cfg
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir is required")
	}
	if _, err := xzstar.New(cfg.MaxResolution); err != nil {
		return nil, err
	}
	// Pre-split on the shard byte so each shard maps to one region, like the
	// paper's HBase pre-split.
	splits := make([][]byte, 0, cfg.Shards-1)
	for s := 1; s < cfg.Shards; s++ {
		splits = append(splits, []byte{byte(s)})
	}
	clusterCfg := cluster.Config{
		Dir:               cfg.Dir,
		SplitKeys:         splits,
		Schema:            fmt.Sprintf(schemaFormat, cfg.Shards, cfg.MaxResolution, rowFormat),
		Parallelism:       cfg.Parallelism,
		RPCLatency:        cfg.RPCLatency,
		HandlersPerRegion: cfg.HandlersPerRegion,
		FS:                cfg.FS,
	}
	clusterCfg.KV.SyncWrites = cfg.SyncWrites
	cl, err := cluster.Open(clusterCfg)
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, cluster: cl, values: make(map[int64]int64)}
	if err = s.adoptShape(asked); err == nil {
		err = s.recoverMeta()
	}
	if err != nil {
		_ = cl.Close()
		return nil, err
	}
	return s, nil
}

// adoptShape sets the store's shape to the one its directory records — for a
// directory just created, the one Open wrote — and refuses a shape the caller
// asked for that differs from it.
func (s *Store) adoptShape(asked Config) error {
	dir, schema := s.cfg.Dir, s.cluster.Schema()
	var format int
	if n, err := fmt.Sscanf(schema, schemaFormat, &s.cfg.Shards, &s.cfg.MaxResolution, &format); n != 3 || err != nil {
		return fmt.Errorf("store: %s records schema %q, not a trajectory store's", dir, schema)
	}
	if regions := len(s.cluster.Regions()); regions != s.cfg.Shards {
		return fmt.Errorf("store: %s records schema %q over %d regions, want one per shard", dir, schema, regions)
	}
	if format != rowFormat {
		return fmt.Errorf("store: %s holds rows of format %d, this build reads format %d", dir, format, rowFormat)
	}
	if asked.Shards > 0 && asked.Shards != s.cfg.Shards {
		return fmt.Errorf("store: %s was created with Shards=%d and cannot be opened with Shards=%d", dir, s.cfg.Shards, asked.Shards)
	}
	if asked.MaxResolution > 0 && asked.MaxResolution != s.cfg.MaxResolution {
		return fmt.Errorf("store: %s was created with MaxResolution=%d and cannot be opened with MaxResolution=%d", dir, s.cfg.MaxResolution, asked.MaxResolution)
	}
	ix, err := xzstar.New(s.cfg.MaxResolution)
	if err != nil {
		return fmt.Errorf("store: %s records schema %q: %w", dir, schema, err)
	}
	s.ix = ix
	return nil
}

// recoverMeta rebuilds the metadata record from the row keys already on disk.
// The filter rejects every row, so only keys are visited and nothing is
// shipped.
func (s *Store) recoverMeta() error {
	var (
		mu     sync.Mutex // scan workers invoke the filter concurrently
		values []int64
		bad    error
	)
	snap, err := s.cluster.Snapshot()
	if err != nil {
		return err
	}
	defer func() { _ = snap.Close() }()
	_, err = snap.ScanStream(context.Background(), cluster.StreamRequest{ScanRequest: cluster.ScanRequest{
		Ranges: []cluster.KeyRange{{}},
		Filter: func(key, _ []byte) bool {
			if len(key) > 0 && key[0] >= idIndexPrefix {
				return false // id-index row
			}
			mu.Lock()
			if len(key) < 1+8+1 {
				bad = fmt.Errorf("store: corrupt data row key %q", key)
			} else {
				values = append(values, keyValue(key))
			}
			mu.Unlock()
			return false
		},
	}}, func(cluster.ScanBatch) error { return nil })
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	s.mu.Lock()
	s.applyRowsLocked(values, nil)
	s.mu.Unlock()
	return nil
}

// keyValue is the index value of a data-row key (shard byte, then 8
// big-endian bytes).
func keyValue(key []byte) int64 { return int64(binary.BigEndian.Uint64(key[1:9])) }

// applyRowsLocked records data rows appearing under the index values in added
// and disappearing from under those in removed. Bulk load, re-put and
// recovery all end here. When the distinct set changes it is rebuilt into a
// new slice by one merge, leaving the published one to the snapshots that
// share it.
func (s *Store) applyRowsLocked(added, removed []int64) {
	s.count += int64(len(added) - len(removed))
	var crossed []int64 // values whose row count reached or left zero
	for _, v := range removed {
		if s.values[v]--; s.values[v] == 0 {
			delete(s.values, v)
			crossed = append(crossed, v)
		}
	}
	for _, v := range added {
		if s.values[v]++; s.values[v] == 1 {
			crossed = append(crossed, v)
		}
	}
	if len(crossed) == 0 {
		return
	}
	slices.Sort(crossed)
	rest := s.sortedValues
	next := make([]int64, 0, len(rest)+len(crossed))
	for _, c := range slices.Compact(crossed) {
		j, stored := slices.BinarySearch(rest, c)
		next = append(next, rest[:j]...)
		rest = rest[j:]
		if stored {
			rest = rest[1:]
		}
		if s.values[c] > 0 {
			next = append(next, c)
		}
	}
	s.sortedValues = append(next, rest...)
}

// Index returns the store's XZ* index (shared, immutable).
func (s *Store) Index() *xzstar.Index { return s.ix }

// Cluster exposes the underlying cluster for stats and tests.
func (s *Store) Cluster() *cluster.Cluster { return s.cluster }

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

// idIndexPrefix begins the row keys of the id→rowkey secondary index. It is
// far above any shard byte, so data scans (which stay inside one shard's
// prefix) never touch index rows.
const idIndexPrefix byte = 0xFE

// idKey is the secondary-index key for a trajectory id.
func idKey(tid string) []byte {
	key := make([]byte, 0, 1+len(tid))
	key = append(key, idIndexPrefix)
	key = append(key, tid...)
	return key
}

// shardOf hashes a trajectory id onto a shard (the decentralizing hash of
// Section IV-E).
func (s *Store) shardOf(tid string) byte {
	h := fnv.New32a()
	h.Write([]byte(tid))
	return byte(h.Sum32() % uint32(s.cfg.Shards))
}

// RowKey builds the row key for an entry: shard + index value + tid
// (Equation 4). The value is 8 big-endian bytes so lexicographic byte order
// equals numeric order.
func (s *Store) RowKey(e xzstar.Entry, tid string) []byte {
	key := make([]byte, 0, 1+8+1+len(tid))
	key = append(key, s.shardOf(tid))
	key = binary.BigEndian.AppendUint64(key, uint64(e.Value))
	key = append(key, 0)
	key = append(key, tid...)
	return key
}

// ErrInvalidTrajectory is wrapped by the error Put and PutBatch return for a
// trajectory that cannot be indexed: nil, empty, or with a coordinate that is
// NaN, infinite or outside the unit square. Nothing is written.
var ErrInvalidTrajectory = errors.New("invalid trajectory")

func checkTrajectory(t *traj.Trajectory) error {
	if t == nil || len(t.Points) == 0 {
		return fmt.Errorf("store: %w: no points", ErrInvalidTrajectory)
	}
	if err := geo.CheckUnit(t.Points...); err != nil {
		return fmt.Errorf("store: %w %q: %v", ErrInvalidTrajectory, t.ID, err)
	}
	return nil
}

// Put is PutBatch of one.
func (s *Store) Put(t *traj.Trajectory) error { return s.PutBatch([]*traj.Trajectory{t}) }

// PutBatch indexes and stores trajectories; it is the one write path.
// Re-putting an id replaces its row, and within a batch the last entry for an
// id wins. Writers of different ids may run concurrently; the caller must
// serialise writers of the same id, because the row an id owns is read before
// the mutation that replaces it.
func (s *Store) PutBatch(ts []*traj.Trajectory) error {
	// The whole batch is validated before its first chunk is written.
	for _, t := range ts {
		if err := checkTrajectory(t); err != nil {
			return err
		}
	}
	const chunk = 4096
	for start := 0; start < len(ts); start += chunk {
		if err := s.putChunk(ts[start:min(start+chunk, len(ts))]); err != nil {
			return err
		}
	}
	return nil
}

// putChunk applies one chunk through one cluster.Mutate: each id's data row
// and id-index row, plus the delete of the data row the id owned under another
// index value. The two rows of an id share a region — and so one atomic WAL
// batch — only when the id hashes to the last shard: data rows live under
// shard bytes 0..Shards-1, every id-index row under idIndexPrefix in the last
// region. What holds for every id is Mutate's order: regions are applied in
// key order and the first failure stops the walk, so a failed or crashed chunk
// — whose rows were never acknowledged — can leave a data row without its id
// row (queries scan it, GetByID does not find it) but never an id row naming a
// data row that was not written.
func (s *Store) putChunk(ts []*traj.Trajectory) error {
	last := make(map[string]int, len(ts))
	for i, t := range ts {
		last[t.ID] = i
	}
	puts := make([]cluster.Entry, 0, 2*len(last))
	var dels [][]byte
	added := make([]int64, 0, len(last))
	var removed []int64
	for i, t := range ts {
		if last[t.ID] != i {
			continue // a later entry for this id wins
		}
		entry := s.ix.Assign(t.Points)
		features := traj.ComputeFeatures(t, s.cfg.DPTolerance)
		key := s.RowKey(entry, t.ID)
		value := traj.EncodeRecord(&traj.Record{ID: t.ID, Points: t.Points, Times: t.Times, Features: features})
		// The id index names the data row (if any) this id already owns.
		ik := idKey(t.ID)
		old, err := s.cluster.Get(ik)
		if err != nil && !errors.Is(err, kv.ErrNotFound) {
			return err
		}
		puts = append(puts, cluster.Entry{Key: key, Value: value}, cluster.Entry{Key: ik, Value: key})
		if bytes.Equal(old, key) {
			continue // overwritten in place: metadata unchanged
		}
		if old != nil {
			dels = append(dels, old)
			removed = append(removed, keyValue(old))
		}
		added = append(added, entry.Value)
	}
	if err := s.cluster.Mutate(puts, dels); err != nil {
		return err
	}
	s.mu.Lock()
	s.applyRowsLocked(added, removed)
	s.mu.Unlock()
	return nil
}

// Flush flushes every region.
func (s *Store) Flush() error { return s.cluster.Flush() }

// Compact compacts every region.
func (s *Store) Compact() error { return s.cluster.Compact() }

// Verify checks the on-disk integrity of every region.
func (s *Store) Verify() error { return s.cluster.Verify() }

// Close shuts the store down.
func (s *Store) Close() error { return s.cluster.Close() }

// Count returns the number of stored trajectories.
func (s *Store) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Distribution returns the per-resolution and per-position-code trajectory
// histograms (Fig. 12), derived from the per-value row counts.
func (s *Store) Distribution() (resolutions, codes []int64) {
	resolutions = make([]int64, s.cfg.MaxResolution+1)
	codes = make([]int64, 11)
	s.mu.Lock()
	defer s.mu.Unlock()
	for v, n := range s.values {
		seq, code, err := s.ix.Decode(v)
		if err != nil {
			panic(err) // every counted value came from Assign at this resolution
		}
		resolutions[seq.Len()] += n
		codes[code] += n
	}
	return resolutions, codes
}

// Selectivity is the ratio of distinct index values to row keys — the metric
// of the paper's resolution study (Fig. 14/15): higher means the index column
// separates trajectories better.
func (s *Store) Selectivity() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0
	}
	return float64(len(s.values)) / float64(s.count)
}

// HasValuesIn reports whether any stored trajectory has an index value in
// [lo, hi). Queries ask their Snapshot instead, for a point-in-time answer.
func (s *Store) HasValuesIn(lo, hi int64) bool {
	s.mu.Lock()
	vals := s.sortedValues
	s.mu.Unlock()
	return hasValuesIn(vals, lo, hi)
}

func hasValuesIn(vals []int64, lo, hi int64) bool {
	i, _ := slices.BinarySearch(vals, lo)
	return i < len(vals) && vals[i] < hi
}

// StreamOptions is empty and benchmark-pinned: it exists only because
// benchmark/trace.go names it in its ScanRangesStream call (see there).
type StreamOptions struct{}

// keyRanges maps XZ* value ranges onto per-shard row-key ranges.
func (s *Store) keyRanges(ranges []xzstar.ValueRange) []cluster.KeyRange {
	keyRanges := make([]cluster.KeyRange, 0, len(ranges)*s.cfg.Shards)
	for shard := 0; shard < s.cfg.Shards; shard++ {
		for _, r := range ranges {
			keyRanges = append(keyRanges, cluster.KeyRange{
				Start: valueKey(byte(shard), r.Lo),
				End:   valueKey(byte(shard), r.Hi),
			})
		}
	}
	return keyRanges
}

// valueKey is the smallest row key with the given shard and index value.
func valueKey(shard byte, value int64) []byte {
	key := make([]byte, 9)
	key[0] = shard
	binary.BigEndian.PutUint64(key[1:], uint64(value))
	return key
}

// GetByID fetches one trajectory by its identifier via the secondary index.
// It returns cluster/kv errors unchanged; a missing id yields kv.ErrNotFound.
func (s *Store) GetByID(tid string) (*traj.Record, error) {
	rowkey, err := s.cluster.Get(idKey(tid))
	if err != nil {
		return nil, err
	}
	value, err := s.cluster.Get(rowkey)
	if err != nil {
		return nil, fmt.Errorf("store: id index points to missing row for %q: %w", tid, err)
	}
	return traj.DecodeRecord(value)
}

// DecodeRow parses a stored row back into a record.
func DecodeRow(value []byte) (*traj.Record, error) {
	return traj.DecodeRecord(value)
}
