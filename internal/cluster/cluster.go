// Package cluster simulates the HBase deployment TraSS runs on: a table is
// range-partitioned into regions, each region is backed by its own embedded
// kv store, and scans are routed by row-key range and executed per region in
// parallel. Server-side filters play the role of HBase coprocessors: the
// paper pushes local filtering down into the region servers so that only
// matching rows cross the network, and this package accounts for exactly
// that (rows scanned vs rows shipped, RPC count, bytes shipped).
//
// An optional per-RPC latency models the network cost that makes the paper's
// shard-count experiment (Fig. 19) a trade-off rather than free parallelism.
package cluster

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kv"
	"repro/internal/vfs"
)

// Config configures a cluster.
type Config struct {
	// Dir is the root directory; each region gets a subdirectory.
	Dir string
	// SplitKeys pre-split the table: n keys create n+1 regions. TraSS
	// pre-splits on the shard byte of its row keys. Ignored when the
	// directory already holds a MANIFEST: the recovered topology wins.
	SplitKeys [][]byte
	// Parallelism bounds concurrent region scans per request. Default: the
	// number of regions.
	Parallelism int
	// RPCLatency is added to every region scan call to model network round
	// trips. Default 0 (pure in-process).
	RPCLatency time.Duration
	// HandlersPerRegion bounds concurrent scan calls inside one region, the
	// analogue of an HBase region server's RPC handler pool. 0 = unlimited.
	HandlersPerRegion int
	// SplitThresholdBytes auto-splits a region whose store has written more
	// than this many bytes. Zero disables auto-splitting. Only the cluster's
	// own suites set it: no trass.Option, CLI flag or benchmark workload does.
	SplitThresholdBytes int64
	// KV options applied to each region's store (Dir is overridden; FS
	// inherits Config.FS when unset).
	KV kv.Options
	// FS is the filesystem the cluster (and, unless overridden, each
	// region's store) runs on. Default vfs.Default.
	FS vfs.FS
}

// Entry is one row to write, re-exported from the kv layer.
type Entry = kv.Entry

// Cluster is a range-partitioned table over embedded kv stores. Methods are
// safe for concurrent use.
type Cluster struct {
	cfg Config
	fs  vfs.FS

	mu      sync.RWMutex
	regions []*Region // sorted by start key
	nextID  int
	closed  bool

	rpcs          atomic.Int64
	retries       atomic.Int64 // region scan attempts beyond the first
	splitFailures atomic.Int64
}

// Region is one key-range partition. start is inclusive, end exclusive; nil
// means unbounded on that side.
type Region struct {
	id         int
	start, end []byte
	db         *kv.DB
	dir        string
	fs         vfs.FS // the cluster's filesystem (immutable after open)
	rootDir    string // the cluster's root directory (immutable after open)
	approxSize atomic.Int64
	handlers   chan struct{} // nil = unlimited

	// Snapshot lifecycle (see snapshot.go): pins counts the snapshots
	// holding this region, retired marks it replaced by a committed split,
	// and reaped latches the one deferred teardown.
	pins    atomic.Int64
	retired atomic.Bool
	reaped  atomic.Bool
}

// ID returns the region's identifier.
func (r *Region) ID() int { return r.id }

// Start returns the region's inclusive start key (nil = unbounded).
func (r *Region) Start() []byte { return r.start }

// End returns the region's exclusive end key (nil = unbounded).
func (r *Region) End() []byte { return r.end }

// Open creates a cluster in cfg.Dir with the configured pre-splits, or — when
// the directory holds a MANIFEST from an earlier run — recovers the recorded
// topology, including every region created by auto-splitting. Region
// directories the manifest does not reference (debris of uncommitted splits,
// or split parents whose deletion never became durable) are removed.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: Config.Dir is required")
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = vfs.Default
	}
	c := &Cluster{cfg: cfg, fs: fsys}
	if err := fsys.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("cluster: create dir: %w", err)
	}
	names, err := fsys.List(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: list dir: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			if err := fsys.Remove(filepath.Join(cfg.Dir, name)); err != nil {
				return nil, fmt.Errorf("cluster: clean %s: %w", name, err)
			}
		}
	}

	m, haveManifest, err := readManifest(fsys, cfg.Dir)
	if err != nil {
		return nil, err
	}
	if haveManifest {
		if err := c.recoverFromManifest(m, names); err != nil {
			_ = c.Close()
			return nil, err
		}
		return c, nil
	}

	splits := make([][]byte, len(cfg.SplitKeys))
	copy(splits, cfg.SplitKeys)
	sort.Slice(splits, func(i, j int) bool { return bytes.Compare(splits[i], splits[j]) < 0 })
	for i := 1; i < len(splits); i++ {
		if bytes.Equal(splits[i-1], splits[i]) {
			return nil, fmt.Errorf("cluster: duplicate split key %q", splits[i])
		}
	}
	bounds := make([][2][]byte, 0, len(splits)+1)
	var prev []byte
	for _, s := range splits {
		bounds = append(bounds, [2][]byte{prev, s})
		prev = s
	}
	bounds = append(bounds, [2][]byte{prev, nil})

	for _, b := range bounds {
		r, err := c.newRegion(b[0], b[1])
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		c.regions = append(c.regions, r)
	}
	if err := writeManifest(fsys, cfg.Dir, c.nextID, c.regions); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// recoverFromManifest rebuilds the region set the manifest records (already
// in key order and checked to tile the key space, see readManifest) and
// deletes unreferenced region directories. names is the root directory
// listing taken before the manifest was read.
func (c *Cluster) recoverFromManifest(m *manifest, names []string) error {
	referenced := make(map[string]bool, len(m.Regions))
	c.nextID = m.NextID
	for _, rec := range m.Regions {
		referenced[regionDirName(rec.ID)] = true
		r, err := c.openRegion(rec.ID, rec.Start, rec.End)
		if err != nil {
			return err
		}
		c.regions = append(c.regions, r)
		if rec.ID >= c.nextID {
			c.nextID = rec.ID + 1
		}
	}
	removed := false
	for _, name := range names {
		if !strings.HasPrefix(name, "region-") || referenced[name] {
			continue
		}
		if err := c.fs.RemoveAll(filepath.Join(c.cfg.Dir, name)); err != nil {
			return fmt.Errorf("cluster: clean stale region dir %s: %w", name, err)
		}
		removed = true
	}
	if removed {
		// Best-effort durability for the cleanup; a crash just means the
		// next Open removes the same debris again.
		_ = c.fs.SyncDir(c.cfg.Dir)
	}
	return nil
}

func regionDirName(id int) string { return fmt.Sprintf("region-%04d", id) }

// newRegion allocates the next region ID and opens its store.
func (c *Cluster) newRegion(start, end []byte) (*Region, error) {
	id := c.nextID
	c.nextID++
	return c.openRegion(id, start, end)
}

// openRegion opens (or creates) the store for region id.
func (c *Cluster) openRegion(id int, start, end []byte) (*Region, error) {
	dir := filepath.Join(c.cfg.Dir, regionDirName(id))
	opts := c.cfg.KV
	opts.Dir = dir
	if opts.FS == nil {
		opts.FS = c.fs
	}
	db, err := kv.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("cluster: open region %d: %w", id, err)
	}
	r := &Region{id: id, start: start, end: end, db: db, dir: dir, fs: c.fs, rootDir: c.cfg.Dir}
	if c.cfg.HandlersPerRegion > 0 {
		r.handlers = make(chan struct{}, c.cfg.HandlersPerRegion)
	}
	return r, nil
}

// regionIndex returns the position in c.regions of the region containing
// key. Regions cover the whole key space (Open validates a recovered
// topology), so this always succeeds while the cluster is open.
func (c *Cluster) regionIndex(key []byte) int {
	// First region whose end is > key (nil end sorts last).
	return sort.Search(len(c.regions), func(i int) bool {
		e := c.regions[i].end
		return e == nil || bytes.Compare(key, e) < 0
	})
}

// Put routes a row to its region.
func (c *Cluster) Put(key, value []byte) error {
	return c.Mutate([]kv.Entry{{Key: key, Value: value}}, nil)
}

// Delete routes a delete to its region.
func (c *Cluster) Delete(key []byte) error {
	return c.Mutate(nil, [][]byte{key})
}

// Mutate applies puts and deletes — the one write body. Mutations are grouped
// into one kv batch per region, the closest the cluster gets to multi-row
// atomicity: mutations that land in the same region commit or fail together
// through a single WAL batch. Mutations spanning regions are not atomic across
// them, but the batches are applied in region key order and the first failure
// stops the walk, so a failed (or crashed) Mutate leaves a key-order prefix of
// its regions applied and nothing after it. The store layer leans on that
// order: its data rows live under shard bytes below the id-index prefix, so a
// data row is always applied before the id row naming it, never the reverse.
//
// Auto-splitting is evaluated once at the end, also in key order. It is best
// effort: a failed split leaves the region oversized but intact, and the rows
// were already acknowledged — so the failure is counted, not surfaced, and the
// still-oversized region retries at the next write.
func (c *Cluster) Mutate(puts []kv.Entry, deletes [][]byte) error {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return kv.ErrClosed
	}
	// One batch per region, indexed like c.regions: key order by construction.
	batches := make([]kv.Batch, len(c.regions))
	sizes := make([]int64, len(c.regions))
	for _, e := range puts {
		i := c.regionIndex(e.Key)
		batches[i].Put(e.Key, e.Value)
		sizes[i] += int64(len(e.Key) + len(e.Value))
	}
	for _, key := range deletes {
		i := c.regionIndex(key)
		batches[i].Delete(key)
		sizes[i] += int64(len(key)) // a tombstone still costs bytes
	}
	var oversized []*Region
	threshold := c.cfg.SplitThresholdBytes
	for i, r := range c.regions {
		if batches[i].Len() == 0 {
			continue
		}
		if err := r.db.Apply(&batches[i]); err != nil {
			c.mu.RUnlock()
			return err
		}
		if size := r.approxSize.Add(sizes[i]); threshold > 0 && size > threshold {
			oversized = append(oversized, r)
		}
	}
	c.mu.RUnlock()
	for _, r := range oversized {
		if err := c.splitRegion(r); err != nil {
			c.splitFailures.Add(1)
		}
	}
	return nil
}

// Get routes a point lookup to its region.
func (c *Cluster) Get(key []byte) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, kv.ErrClosed
	}
	return c.regions[c.regionIndex(key)].db.Get(key)
}

// Flush flushes every region's memtable.
func (c *Cluster) Flush() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return kv.ErrClosed
	}
	for _, r := range c.regions {
		if err := r.db.Flush(); err != nil {
			return fmt.Errorf("cluster: flush region %d: %w", r.id, err)
		}
	}
	return nil
}

// Compact fully compacts every region.
func (c *Cluster) Compact() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return kv.ErrClosed
	}
	for _, r := range c.regions {
		if err := r.db.Compact(); err != nil {
			return fmt.Errorf("cluster: compact region %d: %w", r.id, err)
		}
	}
	return nil
}

// Regions returns a snapshot of the current regions.
func (c *Cluster) Regions() []*Region {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Region, len(c.regions))
	copy(out, c.regions)
	return out
}

// Stats aggregates the kv counters of every region; RPCs is the number of
// region scan calls issued so far, Retries the scan attempts beyond each
// call's first, SplitFailures the auto-splits abandoned on error.
type Stats struct {
	KV            kv.StatsSnapshot
	RPCs          int64
	Retries       int64
	SplitFailures int64
}

// Stats returns cluster-wide counters, or kv.ErrClosed on a closed cluster
// (whose region stores can no longer be polled).
func (c *Cluster) Stats() (Stats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return Stats{}, kv.ErrClosed
	}
	var agg kv.StatsSnapshot
	for _, r := range c.regions {
		agg = agg.Add(r.db.Stats())
	}
	return Stats{
		KV:            agg,
		RPCs:          c.rpcs.Load(),
		Retries:       c.retries.Load(),
		SplitFailures: c.splitFailures.Load(),
	}, nil
}

// Verify checks every SSTable block checksum in every region.
func (c *Cluster) Verify() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return kv.ErrClosed
	}
	for _, r := range c.regions {
		if err := r.db.Verify(); err != nil {
			return fmt.Errorf("cluster: region %d: %w", r.id, err)
		}
	}
	return nil
}

// Close shuts down every region.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	for _, r := range c.regions {
		if err := r.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// splitRegion splits r at its median key into two fresh regions. Mirrors an
// HBase region split (without the reference-file optimization: rows are
// rewritten).
//
// Memory: the median is found by streaming — one pass counts the rows, a
// second stops at the midpoint — so no key set is ever materialized.
//
// Crash safety: the children are fully built and flushed first, then the
// manifest naming them (and dropping the parent) is committed atomically,
// and only then is the parent deleted. A crash before the manifest commit
// leaves the old region authoritative (child directories are unreferenced
// debris, cleaned at Open); a crash after it leaves both children live (a
// surviving parent directory is the unreferenced one). Either way, never
// neither.
func (c *Cluster) splitRegion(r *Region) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return kv.ErrClosed
	}
	// The region may have been split by a concurrent writer already.
	idx := -1
	for i, cur := range c.regions {
		if cur == r {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}

	// Pass 1: count rows (and remember the first key) in O(1) memory.
	count := 0
	var firstKey []byte
	it := r.db.Scan(nil, nil)
	for it.Next() {
		if count == 0 {
			firstKey = append([]byte(nil), it.Key()...)
		}
		count++
	}
	if err := it.Err(); err != nil {
		_ = it.Close()
		return err
	}
	_ = it.Close()
	if count < 2 {
		r.approxSize.Store(0) // nothing to split; stop re-triggering
		return nil
	}
	// Pass 2: re-scan to the midpoint for the median key.
	var mid []byte
	it = r.db.Scan(nil, nil)
	for i := 0; i <= count/2 && it.Next(); i++ {
		mid = it.Key()
	}
	mid = append([]byte(nil), mid...)
	if err := it.Err(); err != nil {
		_ = it.Close()
		return err
	}
	_ = it.Close()
	if bytes.Equal(mid, firstKey) {
		r.approxSize.Store(0)
		return nil
	}

	left, err := c.newRegion(r.start, mid)
	if err != nil {
		return err
	}
	right, err := c.newRegion(mid, r.end)
	if err != nil {
		_ = left.db.Close()
		_ = c.fs.RemoveAll(left.dir)
		return err
	}
	rollback := func() {
		_ = left.db.Close()
		_ = right.db.Close()
		_ = c.fs.RemoveAll(left.dir)
		_ = c.fs.RemoveAll(right.dir)
	}
	// Pass 3: stream the rows into the children.
	it = r.db.Scan(nil, nil)
	for it.Next() {
		dst := left
		if bytes.Compare(it.Key(), mid) >= 0 {
			dst = right
		}
		if err := dst.db.Put(it.Key(), it.Value()); err != nil {
			_ = it.Close()
			rollback()
			return err
		}
		dst.approxSize.Add(int64(len(it.Key()) + len(it.Value())))
	}
	if err := it.Err(); err != nil {
		_ = it.Close()
		rollback()
		return err
	}
	_ = it.Close()
	if err := left.db.Flush(); err != nil {
		rollback()
		return err
	}
	if err := right.db.Flush(); err != nil {
		rollback()
		return err
	}

	// Commit point: the manifest swap replaces the parent with its children.
	next := append([]*Region(nil), c.regions[:idx]...)
	next = append(next, left, right)
	next = append(next, c.regions[idx+1:]...)
	//lint:ignore lockheldio a split is deliberately stop-the-world: the manifest write must commit atomically with the in-memory region-map swap, and splits are rare enough that stalling writers is the simpler correctness story
	if err := writeManifest(c.fs, c.cfg.Dir, c.nextID, next); err != nil {
		rollback()
		return err
	}
	c.regions = next

	// The parent is now unreferenced; retire it. Physical teardown (store
	// close + directory removal) is deferred until the last snapshot pin
	// releases, so a long scan pinning the parent keeps reading its
	// immutable view while the children serve new traffic.
	r.retire()
	return nil
}
