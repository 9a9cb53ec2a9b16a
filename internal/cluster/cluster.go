// Package cluster simulates the HBase deployment TraSS runs on: a table is
// range-partitioned into regions, each region is backed by its own embedded
// kv store, and scans are routed by row-key range and executed region by
// region, in key order, on the caller. Server-side filters play the role of
// HBase coprocessors: the paper pushes local filtering down into the region
// servers so that only matching rows cross the network, and this package
// accounts for exactly that (rows scanned vs rows shipped, RPC count, bytes
// shipped).
//
// An optional per-RPC latency models the network cost of each region call,
// which grows with the shard count in the paper's Fig. 19.
package cluster

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
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
	// directory already holds a MANIFEST: the recorded keys win.
	SplitKeys [][]byte
	// Schema is an opaque string recorded in the MANIFEST when the directory
	// is created and returned by Cluster.Schema ever after; like SplitKeys it
	// is ignored on reopen. The caller writes into it whatever a reopen must
	// agree with (the store: shards, resolution, row format).
	Schema string
	// RPCLatency is added to every region scan call to model network round
	// trips. Default 0 (pure in-process).
	RPCLatency time.Duration
	// HandlersPerRegion bounds concurrent scan calls inside one region, the
	// analogue of an HBase region server's RPC handler pool. 0 = unlimited.
	HandlersPerRegion int
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
	cfg    Config
	schema string // as recorded in the MANIFEST

	// regions is sorted by start key, tiles the key space, and is immutable
	// from Open to Close; region i lives in directory region-%04d of i.
	regions []*Region

	mu     sync.RWMutex // holds Close off while an operation uses the region stores
	closed bool

	rpcs atomic.Int64
	// sorts counts the scans whose ranges scanTasks had to sort: a caller
	// that hands them over in key order costs none.
	sorts atomic.Int64
}

// Region is one key-range partition. start is inclusive, end exclusive; nil
// means unbounded on that side.
type Region struct {
	id         int
	start, end []byte
	db         *kv.DB
	dir        string
	handlers   chan struct{} // nil = unlimited
}

// ID returns the region's identifier.
func (r *Region) ID() int { return r.id }

// Start returns the region's inclusive start key (nil = unbounded).
func (r *Region) Start() []byte { return r.start }

// End returns the region's exclusive end key (nil = unbounded).
func (r *Region) End() []byte { return r.end }

// Open creates a cluster in cfg.Dir with the configured pre-splits and schema,
// or — when the directory holds a MANIFEST from an earlier run — opens it with
// the split keys and schema recorded there. The MANIFEST is written once, when
// the directory is created, before any region store: a crash during creation
// leaves either no MANIFEST (the next Open creates the directory afresh) or a
// whole one over region stores that are empty or missing, which open empty.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: Config.Dir is required")
	}
	if cfg.FS == nil {
		cfg.FS = vfs.Default
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("cluster: create dir: %w", err)
	}
	m, recorded, err := readManifest(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, err
	}
	if !recorded {
		m = &manifest{Version: manifestVersion, SplitKeys: slices.Clone(cfg.SplitKeys), Schema: cfg.Schema}
		slices.SortFunc(m.SplitKeys, bytes.Compare)
	}
	// Routing searches the region list on the assumption that it tiles the
	// key space, which is exactly "the split keys strictly ascend".
	for i := 1; i < len(m.SplitKeys); i++ {
		if bytes.Compare(m.SplitKeys[i-1], m.SplitKeys[i]) >= 0 {
			return nil, fmt.Errorf("cluster: split keys not strictly ascending: %q then %q", m.SplitKeys[i-1], m.SplitKeys[i])
		}
	}
	if !recorded {
		if err := writeManifest(cfg.FS, cfg.Dir, m); err != nil {
			return nil, err
		}
	}
	c := &Cluster{cfg: cfg, schema: m.Schema}
	for id := 0; id <= len(m.SplitKeys); id++ {
		var start, end []byte
		if id > 0 {
			start = m.SplitKeys[id-1]
		}
		if id < len(m.SplitKeys) {
			end = m.SplitKeys[id]
		}
		r, err := c.openRegion(id, start, end)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		c.regions = append(c.regions, r)
	}
	return c, nil
}

// Schema returns the schema string recorded when the directory was created.
func (c *Cluster) Schema() string { return c.schema }

func regionDirName(id int) string { return fmt.Sprintf("region-%04d", id) }

// openRegion opens (or creates) the store for region id.
func (c *Cluster) openRegion(id int, start, end []byte) (*Region, error) {
	dir := filepath.Join(c.cfg.Dir, regionDirName(id))
	opts := c.cfg.KV
	opts.Dir = dir
	if opts.FS == nil {
		opts.FS = c.cfg.FS
	}
	db, err := kv.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("cluster: open region %d: %w", id, err)
	}
	r := &Region{id: id, start: start, end: end, db: db, dir: dir}
	if c.cfg.HandlersPerRegion > 0 {
		r.handlers = make(chan struct{}, c.cfg.HandlersPerRegion)
	}
	return r, nil
}

// regionIndex returns the position in c.regions of the region containing
// key. Regions cover the whole key space, so this always succeeds.
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
// into one kv batch per region, and a region's batch is one WAL record (or,
// past a memtable, one ingested table; see kv.DB.Apply), so the mutations that
// land in one region commit or fail together. Nothing is atomic
// across regions: a failed Mutate may have applied some regions' batches and
// not others. Regions are applied in key order, so a given Mutate's filesystem
// operations are the same from run to run.
func (c *Cluster) Mutate(puts []kv.Entry, deletes [][]byte) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return kv.ErrClosed
	}
	// One batch per region, indexed like c.regions: key order by construction.
	batches := make([]kv.Batch, len(c.regions))
	for _, e := range puts {
		batches[c.regionIndex(e.Key)].Put(e.Key, e.Value)
	}
	for _, key := range deletes {
		batches[c.regionIndex(key)].Delete(key)
	}
	for i, r := range c.regions {
		if batches[i].Len() == 0 {
			continue
		}
		if err := r.db.Apply(&batches[i]); err != nil {
			return err
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

// Regions returns the regions in key order.
func (c *Cluster) Regions() []*Region { return slices.Clone(c.regions) }

// Stats aggregates the kv counters of every region; RPCs is the number of
// region scan calls issued so far. Retries is always zero (a failed region
// call is not retried); it stays until the benchmark stops reading it.
type Stats struct {
	KV      kv.StatsSnapshot
	RPCs    int64
	Retries int64
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
	return Stats{KV: agg, RPCs: c.rpcs.Load()}, nil
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
