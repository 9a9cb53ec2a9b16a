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
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/traj"
	"repro/internal/vfs"
	"repro/internal/xzstar"
)

// Encoding selects the row-key encoding. The paper's TraSS uses the integer
// encoding; TraSS-S is the string-concatenation variant it compares storage
// overhead against (Fig. 13(c)).
type Encoding int

const (
	// IntegerEncoding stores the XZ* index value as 8 big-endian bytes.
	IntegerEncoding Encoding = iota
	// StringEncoding stores the quadrant sequence as ASCII digits plus a
	// position-code byte (always resolution+1 bytes). Supported for writes
	// and storage accounting; the query planner requires IntegerEncoding.
	StringEncoding
)

// Config configures a trajectory store.
type Config struct {
	// Dir is the root directory. Required.
	Dir string
	// Shards is the hash fan-out of the row key (Section IV-E); the paper's
	// default cluster value is 8. Default 8.
	Shards int
	// MaxResolution is the XZ* maximum resolution. Default 16 (the paper's).
	MaxResolution int
	// DPTolerance is the Douglas-Peucker distance for pre-computed features.
	// Default 0.01 (the paper's).
	DPTolerance float64
	// Encoding selects integer (TraSS) or string (TraSS-S) row keys.
	Encoding Encoding
	// RPCLatency, Parallelism, HandlersPerRegion and SplitThresholdBytes
	// pass through to the cluster layer.
	RPCLatency          time.Duration
	Parallelism         int
	HandlersPerRegion   int
	SplitThresholdBytes int64
	// FS is the filesystem the store runs on (default the real one). Tests
	// use it to inject faults.
	FS vfs.FS
	// SyncWrites makes every acknowledged write durable (WAL fsync per
	// write/batch) in each region's store.
	SyncWrites bool
	// DegradedScans lets queries return partial results when a region fails
	// even after retries: surviving regions' rows are used and the failures
	// are reported in the scan result instead of failing the query.
	DegradedScans bool
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

	mu           sync.Mutex
	count        int64
	keyBytes     int64
	resHist      []int64 // trajectories per resolution (Fig. 12(a))
	codeHist     []int64 // trajectories per position code 1..10 (Fig. 12(b))
	values       map[int64]int64
	sortedValues []int64 // cache of the distinct values, rebuilt on demand
	valuesDirty  bool
}

// Open creates or opens a trajectory store.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Config.Dir is required")
	}
	ix, err := xzstar.New(cfg.MaxResolution)
	if err != nil {
		return nil, err
	}
	// Pre-split on the shard byte so each shard maps to one region, like the
	// paper's HBase pre-split.
	splits := make([][]byte, 0, cfg.Shards-1)
	for s := 1; s < cfg.Shards; s++ {
		splits = append(splits, []byte{byte(s)})
	}
	clusterCfg := cluster.Config{
		Dir:                 cfg.Dir,
		SplitKeys:           splits,
		Parallelism:         cfg.Parallelism,
		RPCLatency:          cfg.RPCLatency,
		HandlersPerRegion:   cfg.HandlersPerRegion,
		SplitThresholdBytes: cfg.SplitThresholdBytes,
		FS:                  cfg.FS,
	}
	clusterCfg.KV.SyncWrites = cfg.SyncWrites
	cl, err := cluster.Open(clusterCfg)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:      cfg,
		ix:       ix,
		cluster:  cl,
		resHist:  make([]int64, cfg.MaxResolution+1),
		codeHist: make([]int64, 11),
		values:   make(map[int64]int64),
	}
	if cfg.Encoding == IntegerEncoding {
		if err := s.recoverMeta(); err != nil {
			_ = cl.Close()
			return nil, err
		}
	}
	return s, nil
}

// recoverMeta rebuilds the in-memory metadata (count, histograms, distinct
// index values) from the row keys already on disk. The filter rejects every
// row, so only keys are visited and nothing is shipped.
func (s *Store) recoverMeta() error {
	_, err := s.cluster.Scan(context.Background(), cluster.ScanRequest{
		Ranges: []cluster.KeyRange{{}},
		Filter: func(key, _ []byte) bool {
			if len(key) < 1+8+1 || key[0] >= idIndexPrefix {
				return false // not a trajectory data row; ignore
			}
			v := int64(binary.BigEndian.Uint64(key[1:9]))
			seq, code, err := s.ix.Decode(v)
			if err != nil {
				return false
			}
			// Scan workers invoke the filter concurrently: serialize on the
			// same s.mu that guards these fields everywhere else, not a
			// recovery-local mutex no other access path can see.
			s.mu.Lock()
			s.count++
			s.keyBytes += int64(len(key))
			s.resHist[seq.Len()]++
			s.codeHist[code]++
			s.values[v]++
			s.valuesDirty = true
			s.mu.Unlock()
			return false
		},
	})
	return err
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
// (Equation 4). Integer encoding uses 8 big-endian bytes so lexicographic
// byte order equals numeric order.
func (s *Store) RowKey(e xzstar.Entry, tid string) []byte {
	switch s.cfg.Encoding {
	case StringEncoding:
		seq := e.Seq.String()
		key := make([]byte, 0, 1+len(seq)+1+1+len(tid))
		key = append(key, s.shardOf(tid))
		key = append(key, seq...)
		key = append(key, byte(e.Code))
		key = append(key, 0)
		key = append(key, tid...)
		return key
	default:
		key := make([]byte, 0, 1+8+1+len(tid))
		key = append(key, s.shardOf(tid))
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], uint64(e.Value))
		key = append(key, v[:]...)
		key = append(key, 0)
		key = append(key, tid...)
		return key
	}
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

// Put indexes and stores one trajectory. The data row and the id-index row
// are applied through one region batch (cluster.Mutate), so a crash cannot
// acknowledge the data row while losing the index row that makes it
// reachable by GetByID. Re-putting an existing id deletes the stale data row
// under the old index value in the same mutation instead of leaking it.
func (s *Store) Put(t *traj.Trajectory) error {
	if err := checkTrajectory(t); err != nil {
		return err
	}
	entry := s.ix.Assign(t.Points)
	features := traj.ComputeFeatures(t, s.cfg.DPTolerance)
	key := s.RowKey(entry, t.ID)
	value := traj.EncodeRecord(&traj.Record{ID: t.ID, Points: t.Points, Times: t.Times, Features: features})

	// The id index tells us which data row (if any) this id already owns.
	old, err := s.cluster.Get(idKey(t.ID))
	if err != nil && !errors.Is(err, kv.ErrNotFound) {
		return err
	}
	puts := []cluster.Entry{{Key: key, Value: value}, {Key: idKey(t.ID), Value: key}}
	var dels [][]byte
	if old != nil && !bytes.Equal(old, key) {
		dels = append(dels, old)
	}
	if err := s.cluster.Mutate(puts, dels); err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old == nil {
		s.count++
	} else {
		if bytes.Equal(old, key) {
			return nil // pure overwrite: metadata unchanged
		}
		s.keyBytes -= int64(len(old))
		s.dropOldKeyMetaLocked(old)
	}
	s.keyBytes += int64(len(key))
	s.resHist[entry.Seq.Len()]++
	s.codeHist[entry.Code]++
	s.noteValueLocked(entry.Value)
	return nil
}

// dropOldKeyMetaLocked reverses the histogram and distinct-value
// contributions of a replaced data row. Only integer-encoded keys can be
// decoded; under StringEncoding the histograms keep the old entry (the query
// planner does not support that encoding anyway).
func (s *Store) dropOldKeyMetaLocked(old []byte) {
	if s.cfg.Encoding != IntegerEncoding || len(old) < 1+8+1 {
		return
	}
	v := int64(binary.BigEndian.Uint64(old[1:9]))
	seq, code, err := s.ix.Decode(v)
	if err != nil {
		return
	}
	s.resHist[seq.Len()]--
	s.codeHist[code]--
	s.dropValueLocked(v)
}

// HasValuesIn reports whether any stored trajectory has an index value in
// [lo, hi). Best-first top-k uses it to skip empty subtrees — the same role
// an HBase region's key-bound metadata plays.
func (s *Store) HasValuesIn(lo, hi int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals := s.sortedValuesLocked()
	i := sort.Search(len(vals), func(i int) bool { return vals[i] >= lo })
	return i < len(vals) && vals[i] < hi
}

func (s *Store) sortedValuesLocked() []int64 {
	if s.valuesDirty || s.sortedValues == nil {
		// Full rebuild: only the recovery path sets valuesDirty now; writes
		// maintain the cache incrementally below.
		s.sortedValues = s.sortedValues[:0]
		for v := range s.values {
			s.sortedValues = append(s.sortedValues, v)
		}
		sort.Slice(s.sortedValues, func(i, j int) bool { return s.sortedValues[i] < s.sortedValues[j] })
		s.valuesDirty = false
	}
	return s.sortedValues
}

// noteValueLocked records one more row under index value v, inserting new
// distinct values into the sorted cache by binary search so interleaved
// ingest and HasValuesIn reads never pay a full re-sort.
func (s *Store) noteValueLocked(v int64) {
	s.values[v]++
	if s.values[v] > 1 || s.valuesDirty {
		return // not a new distinct value, or a full rebuild is pending anyway
	}
	i := sort.Search(len(s.sortedValues), func(i int) bool { return s.sortedValues[i] >= v })
	s.sortedValues = append(s.sortedValues, 0)
	copy(s.sortedValues[i+1:], s.sortedValues[i:])
	s.sortedValues[i] = v
}

// dropValueLocked removes one row under index value v, dropping v from the
// sorted cache when its last row goes away.
func (s *Store) dropValueLocked(v int64) {
	n, ok := s.values[v]
	if !ok {
		return
	}
	if n > 1 {
		s.values[v] = n - 1
		return
	}
	delete(s.values, v)
	if s.valuesDirty {
		return
	}
	i := sort.Search(len(s.sortedValues), func(i int) bool { return s.sortedValues[i] >= v })
	if i < len(s.sortedValues) && s.sortedValues[i] == v {
		s.sortedValues = append(s.sortedValues[:i], s.sortedValues[i+1:]...)
	}
}

// PutBatch stores many trajectories, batching rows per region for bulk-load
// throughput.
func (s *Store) PutBatch(ts []*traj.Trajectory) error {
	// The whole batch is validated before its first chunk is written.
	for _, t := range ts {
		if err := checkTrajectory(t); err != nil {
			return err
		}
	}
	const chunk = 4096
	for start := 0; start < len(ts); start += chunk {
		end := start + chunk
		if end > len(ts) {
			end = len(ts)
		}
		entries := make([]cluster.Entry, 0, end-start)
		type meta struct {
			keyLen int
			entry  xzstar.Entry
		}
		metas := make([]meta, 0, end-start)
		for _, t := range ts[start:end] {
			e := s.ix.Assign(t.Points)
			features := traj.ComputeFeatures(t, s.cfg.DPTolerance)
			key := s.RowKey(e, t.ID)
			value := traj.EncodeRecord(&traj.Record{ID: t.ID, Points: t.Points, Times: t.Times, Features: features})
			entries = append(entries, cluster.Entry{Key: key, Value: value})
			entries = append(entries, cluster.Entry{Key: idKey(t.ID), Value: key})
			metas = append(metas, meta{keyLen: len(key), entry: e})
		}
		if err := s.cluster.PutBatch(entries); err != nil {
			return err
		}
		s.mu.Lock()
		newVals := false
		for _, m := range metas {
			s.count++
			s.keyBytes += int64(m.keyLen)
			s.resHist[m.entry.Seq.Len()]++
			s.codeHist[m.entry.Code]++
			s.values[m.entry.Value]++
			if s.values[m.entry.Value] == 1 && !s.valuesDirty {
				s.sortedValues = append(s.sortedValues, m.entry.Value)
				newVals = true
			}
		}
		if newVals {
			// One sort per chunk, amortizing what used to be a full re-sort
			// on every HasValuesIn after a dirty write.
			sort.Slice(s.sortedValues, func(i, j int) bool { return s.sortedValues[i] < s.sortedValues[j] })
		}
		s.mu.Unlock()
	}
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

// AvgRowKeyBytes returns the mean row-key size — the Fig. 13(c) metric.
func (s *Store) AvgRowKeyBytes() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return 0
	}
	return float64(s.keyBytes) / float64(s.count)
}

// Distribution returns the per-resolution and per-position-code trajectory
// histograms (Fig. 12).
func (s *Store) Distribution() (resolutions, codes []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.resHist...), append([]int64(nil), s.codeHist...)
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

// StreamOptions is empty and benchmark-pinned: it exists only because
// benchmark/trace.go names it in its ScanRangesStream call (see there).
type StreamOptions struct{}

// keyRanges maps XZ* value ranges onto per-shard row-key ranges.
func (s *Store) keyRanges(ranges []xzstar.ValueRange) ([]cluster.KeyRange, error) {
	if s.cfg.Encoding != IntegerEncoding {
		return nil, fmt.Errorf("store: range scans require IntegerEncoding")
	}
	keyRanges := make([]cluster.KeyRange, 0, len(ranges)*s.cfg.Shards)
	for shard := 0; shard < s.cfg.Shards; shard++ {
		for _, r := range ranges {
			keyRanges = append(keyRanges, cluster.KeyRange{
				Start: valueKey(byte(shard), r.Lo),
				End:   valueKey(byte(shard), r.Hi),
			})
		}
	}
	return keyRanges, nil
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
