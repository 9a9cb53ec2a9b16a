// Package store implements the trajectory table of Section IV-E: rows keyed
// by shard + XZ* index value + trajectory id, values carrying the points and
// the pre-computed DP features (the paper's points / dp-points / dp-mbrs
// columns), laid out over the range-partitioned cluster substrate.
package store

import (
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
	// DPTolerance is the Douglas-Peucker distance for pre-computed features,
	// in normalized plane units. Default 0.01, which is NOT the paper's
	// setting: the paper's 0.01° is gen.DegreesToNorm(0.01) ≈ 2.8e-5, so the
	// default is 360× coarser and leaves most trajectories one feature box
	// (their MBR). The figures pass 0.01°; trass.Open, trassd and cmd/trass
	// run the default (DESIGN.md §2).
	DPTolerance float64
	// RPCLatency and HandlersPerRegion pass through to the cluster layer.
	RPCLatency        time.Duration
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

	// commitHook, when set, runs after each shard batch of PutBatch commits
	// and before the metadata records it, on that shard's goroutine. Only
	// tests set it.
	commitHook func()

	// The table's metadata record. PutBatch and recoverMeta write it, the
	// value set only through addValuesLocked and removeValuesLocked.
	mu    sync.Mutex
	count int64 // data rows, one per trajectory id
	// values is the distinct index values. A published set is never mutated
	// — a write that changes the distinct set installs a new one, sharing
	// the chunks it did not touch — so Snapshot shares it instead of copying.
	values valueSet
	// shared holds, for each value two or more rows share, its row count
	// minus one; a value in values but not here has one row.
	shared map[int64]int64
}

// schemaFormat is what a directory records about itself when it is created —
// the choices every later Open has to share to read its rows. rowFormat
// versions the row layout (row keys here, values in traj.EncodeRecord).
const (
	schemaFormat = "trass shards=%d max_resolution=%d row_format=%d"
	rowFormat    = 2
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
		RPCLatency:        cfg.RPCLatency,
		HandlersPerRegion: cfg.HandlersPerRegion,
		FS:                cfg.FS,
	}
	clusterCfg.KV.SyncWrites = cfg.SyncWrites
	cl, err := cluster.Open(clusterCfg)
	if err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, cluster: cl, shared: make(map[int64]int64)}
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
		return fmt.Errorf("store: %s holds rows of format %d, this build reads format %d; re-load the data into a new directory", dir, format, rowFormat)
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
			if len(key) > 1 && key[1] == idRow {
				return false
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
	s.addValuesLocked(values)
	s.count += int64(len(values))
	s.mu.Unlock()
	return nil
}

// keyValue is the index value of a data-row key (shard byte, then 8
// big-endian bytes).
func keyValue(key []byte) int64 { return int64(binary.BigEndian.Uint64(key[1:9])) }

// addValuesLocked records one data row appearing under each value in vs;
// removeValuesLocked records one disappearing. Bulk load, re-put and recovery
// all end here. A value's row count is 1 + shared[v] while it is in values,
// so only values held by two or more rows take a map entry. When the
// distinct set changes, the chunks it changes are rebuilt into a new set,
// leaving the published one to the snapshots that share it. vs is not
// reordered.
func (s *Store) addValuesLocked(vs []int64) {
	var joined []int64 // values no row held before, ascending
	values := s.values
	eachRun(vs, func(v, n int64) {
		if !values.hasIn(v, v+1) {
			joined = append(joined, v)
			n-- // the first row is counted by v's place in values
		}
		if n > 0 {
			s.shared[v] += n
		}
	})
	s.values = s.values.with(joined, true)
}

func (s *Store) removeValuesLocked(vs []int64) {
	var left []int64 // values whose last row went, ascending
	eachRun(vs, func(v, n int64) {
		switch extra := s.shared[v]; {
		case extra > n:
			s.shared[v] = extra - n
		case extra == n:
			delete(s.shared, v)
		default:
			delete(s.shared, v)
			left = append(left, v)
		}
	})
	s.values = s.values.with(left, false)
}

// eachRun calls fn once per distinct value in vs, ascending, with how many
// times it occurs. It sorts a copy.
func eachRun(vs []int64, fn func(v, n int64)) {
	sorted := slices.Clone(vs)
	slices.Sort(sorted)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		fn(sorted[i], int64(j-i))
		i = j
	}
}

// Index returns the store's XZ* index (shared, immutable).
func (s *Store) Index() *xzstar.Index { return s.ix }

// Cluster exposes the underlying cluster for stats and tests.
func (s *Store) Cluster() *cluster.Cluster { return s.cluster }

// Config returns the effective configuration.
func (s *Store) Config() Config { return s.cfg }

// idRow is the second byte of an id row's key, shard ‖ idRow ‖ tid, whose
// value is the trajectory's index value (8 bytes, big-endian): the secondary
// index GetByID reads. Index values are below 13·4^28, so a data key's second
// byte is at most 0x0C; an id row sorts after every data row of its shard, no
// planned range reaches it, and it shares its trajectory's region.
const idRow byte = 0xFF

// idKey is the key of tid's id row.
func idKey(shard byte, tid string) []byte {
	return append([]byte{shard, idRow}, tid...)
}

// idValue parses the index value an id row holds.
func idValue(tid string, v []byte) (int64, error) {
	if len(v) != 8 {
		return 0, fmt.Errorf("store: corrupt id row for %q: %d-byte value", tid, len(v))
	}
	return int64(binary.BigEndian.Uint64(v)), nil
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
	return rowKey(s.shardOf(tid), e.Value, tid)
}

func rowKey(shard byte, value int64, tid string) []byte {
	key := make([]byte, 0, 1+8+1+len(tid))
	key = append(key, shard)
	key = binary.BigEndian.AppendUint64(key, uint64(value))
	key = append(key, 0)
	return append(key, tid...)
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
// id wins. Each trajectory is written all or nothing: its data row, its id row
// and the delete of the row it replaces share its shard's region and commit as
// one batch. Shards are written concurrently, one goroutine each, and
// PutBatch returns once every one has finished: a failed PutBatch may have
// applied the trajectories of any subset of its shards. The whole batch's
// encoded rows are held at once, about 0.3× the bytes of its points. Writers
// of different ids may run concurrently; the caller must serialise writers of
// the same id, because the row an id owns is read before the mutation that
// replaces it.
func (s *Store) PutBatch(ts []*traj.Trajectory) error {
	// The whole batch is validated before any shard is written.
	for _, t := range ts {
		if err := checkTrajectory(t); err != nil {
			return err
		}
	}
	last := make(map[string]int, len(ts))
	for i, t := range ts {
		last[t.ID] = i
	}
	shards := make([][]*traj.Trajectory, s.cfg.Shards)
	for i, t := range ts {
		if last[t.ID] == i { // a later entry for this id wins
			shard := s.shardOf(t.ID)
			shards[shard] = append(shards[shard], t)
		}
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for shard, group := range shards {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[shard] = s.putShard(byte(shard), group)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// putShard writes one shard's trajectories as one cluster.Mutate, a single
// region's batch: each id's data row and id row, plus the delete of the data
// row the id owned under another index value. The value set gains the
// batch's values before it commits and loses the ones it vacates after, so it
// covers the rows of every state a snapshot can pin (Snapshot reads both at
// one instant); the count changes once the batch has committed.
func (s *Store) putShard(shard byte, group []*traj.Trajectory) error {
	puts := make([]cluster.Entry, 0, 2*len(group))
	var dels [][]byte
	var added, removed []int64
	for _, t := range group {
		entry := s.ix.Assign(t.Points)
		features := traj.ComputeFeatures(t, s.cfg.DPTolerance)
		value := traj.EncodeRecord(&traj.Record{ID: t.ID, Points: t.Points, Times: t.Times, Features: features})
		ik := idKey(shard, t.ID)
		puts = append(puts,
			cluster.Entry{Key: rowKey(shard, entry.Value, t.ID), Value: value},
			cluster.Entry{Key: ik, Value: binary.BigEndian.AppendUint64(nil, uint64(entry.Value))})
		old, err := s.cluster.Get(ik)
		if errors.Is(err, kv.ErrNotFound) {
			added = append(added, entry.Value)
			continue
		}
		if err != nil {
			return err
		}
		was, err := idValue(t.ID, old)
		if err != nil {
			return err
		}
		if was != entry.Value { // else overwritten in place: metadata unchanged
			dels = append(dels, rowKey(shard, was, t.ID))
			added = append(added, entry.Value)
			removed = append(removed, was)
		}
	}
	s.mu.Lock()
	s.addValuesLocked(added)
	s.mu.Unlock()
	if err := s.cluster.Mutate(puts, dels); err != nil {
		s.mu.Lock()
		s.removeValuesLocked(added)
		s.mu.Unlock()
		return err
	}
	if s.commitHook != nil {
		s.commitHook()
	}
	s.mu.Lock()
	s.removeValuesLocked(removed)
	s.count += int64(len(added) - len(removed))
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
	for _, chunk := range s.values.chunks {
		for _, v := range chunk {
			seq, code, err := s.ix.Decode(v)
			if err != nil {
				panic(err) // every counted value came from Assign at this resolution
			}
			n := 1 + s.shared[v]
			resolutions[seq.Len()] += n
			codes[code] += n
		}
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
	return float64(s.values.size()) / float64(s.count)
}

// StreamOptions is empty and benchmark-pinned: it exists only because
// benchmark/trace.go names it in its ScanRangesStream call (see there).
type StreamOptions struct{}

// keyRangeBuf holds one scan's row-key ranges and the key bytes they slice.
type keyRangeBuf struct {
	ranges []cluster.KeyRange
	keys   []byte
}

// keyRangePool recycles keyRangeBufs: every one-shot scan maps its value
// ranges afresh, and every best-first query's cursor holds one for all its
// drains. A buffer holds only keys it built itself.
var keyRangePool = sync.Pool{New: func() any { return new(keyRangeBuf) }}

// keyRanges maps XZ* value ranges onto per-shard row-key ranges, shard by
// shard, so sorted value ranges give key-ordered row-key ranges. The result
// and every key in it reuse buf's arrays, so they are valid until buf is
// used again.
func (s *Store) keyRanges(buf *keyRangeBuf, ranges []xzstar.ValueRange) []cluster.KeyRange {
	n := len(ranges) * s.cfg.Shards
	keyRanges := slices.Grow(buf.ranges[:0], n)
	keys := slices.Grow(buf.keys[:0], 2*valueKeyLen*n)
	for shard := 0; shard < s.cfg.Shards; shard++ {
		for _, r := range ranges {
			keys = appendValueKey(keys, byte(shard), r.Lo)
			keys = appendValueKey(keys, byte(shard), r.Hi)
			k := len(keys)
			keyRanges = append(keyRanges, cluster.KeyRange{
				Start: keys[k-2*valueKeyLen : k-valueKeyLen : k-valueKeyLen],
				End:   keys[k-valueKeyLen : k : k],
			})
		}
	}
	buf.ranges, buf.keys = keyRanges, keys
	return keyRanges
}

// valueKeyLen is the length of a value key: shard byte, then the index value.
const valueKeyLen = 1 + 8

// appendValueKey appends the smallest row key with the given shard and index
// value.
func appendValueKey(dst []byte, shard byte, value int64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, shard), uint64(value))
}

// GetByID fetches one trajectory by its identifier via its id row. It returns
// cluster/kv errors unchanged; a missing id yields kv.ErrNotFound.
func (s *Store) GetByID(tid string) (*traj.Record, error) {
	shard := s.shardOf(tid)
	v, err := s.cluster.Get(idKey(shard, tid))
	if err != nil {
		return nil, err
	}
	value, err := idValue(tid, v)
	if err != nil {
		return nil, err
	}
	row, err := s.cluster.Get(rowKey(shard, value, tid))
	if err != nil {
		return nil, fmt.Errorf("store: id index points to missing row for %q: %w", tid, err)
	}
	return traj.DecodeRecord(row)
}

// DecodeRow parses a stored row back into a record.
func DecodeRow(value []byte) (*traj.Record, error) {
	return traj.DecodeRecord(value)
}
