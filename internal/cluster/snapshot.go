package cluster

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/kv"
)

// MVCC snapshot reads at the cluster layer. A Snapshot pins the region
// topology together with one kv snapshot per region, all captured under one
// read-lock acquisition, so a long ScanStream runs against a single
// consistent view of the whole table: it neither blocks splits and ingest
// nor is blocked by them. Region splits that retire a region while a
// snapshot holds it defer the physical teardown (store close + directory
// removal) until the last snapshot releases its pin — the cluster-level
// mirror of the kv layer's refcount-drain table reaper.

// Snapshot is an immutable point-in-time view of the whole cluster. Methods
// are safe for concurrent use with each other and with writes and splits on
// the parent cluster; Close releases every pinned region and kv snapshot
// (idempotent).
type Snapshot struct {
	c *Cluster

	// regions is immutable after construction (mu only guards the Close
	// handshake): the pinned topology in key order.
	mu      sync.Mutex
	closed  bool
	regions []snapRegion
}

// snapRegion pairs one pinned region with the kv snapshot serving its reads.
type snapRegion struct {
	region *Region
	snap   *kv.Snapshot
}

// Snapshot pins the current topology and a kv snapshot of every region in
// one critical section. The returned view is consistent: rows a concurrent
// writer commits after this call are invisible, and a concurrent split never
// makes a row appear twice or not at all.
func (c *Cluster) Snapshot() (*Snapshot, error) {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, kv.ErrClosed
	}
	regions := make([]snapRegion, 0, len(c.regions))
	var failed error
	for _, r := range c.regions {
		ks, err := r.db.Snapshot()
		if err != nil {
			failed = err
			break
		}
		r.pin()
		regions = append(regions, snapRegion{region: r, snap: ks})
	}
	c.mu.RUnlock()
	if failed != nil {
		// Undo outside the lock: the last unpin of a retired region runs the
		// reaper's I/O, which must never happen under c.mu.
		for _, sr := range regions {
			_ = sr.snap.Close()
			sr.region.unpin()
		}
		return nil, failed
	}
	return &Snapshot{c: c, regions: regions}, nil
}

// pinned returns the snapshot's region view, or kv.ErrClosed after Close.
func (s *Snapshot) pinned() ([]snapRegion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, kv.ErrClosed
	}
	return s.regions, nil
}

// Get returns the value for key as of the snapshot, or kv.ErrNotFound.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	regions, err := s.pinned()
	if err != nil {
		return nil, err
	}
	// First region whose end is > key — the pinned topology covers the whole
	// key space, exactly like Cluster.regionIndex over the live one.
	i := sort.Search(len(regions), func(i int) bool {
		e := regions[i].region.end
		return e == nil || bytes.Compare(key, e) < 0
	})
	return regions[i].snap.Get(key)
}

// ScanStream is the cluster's one scan entry. It executes the request across
// every pinned region it overlaps, delivering rows to emit in batches (at most
// 64 rows) as they are produced. Ranges falling in one region are served by
// one region call, and region calls run in parallel (bounded by
// Config.Parallelism). emit is always called from the ScanStream goroutine —
// never concurrently — and owns the batch it receives; returning an error from
// emit aborts the stream and surfaces that error verbatim.
//
// Transient region errors (kv errors exposing `Transient() bool` = true) are
// retried per region (3 times, backing off 1, 2, 4 ms) before counting as
// failures; a retry resumes just past the last delivered key, so no row is
// delivered twice. A region that still fails returns a *RegionError — or, with
// AllowPartial, is listed in ScanResult.RegionErrors while the other regions'
// rows keep streaming; rows the failing region emitted before giving up have
// already been delivered, and RegionErrors tells the consumer which regions
// are incomplete. ctx is observed between rows; cancellation is returned as
// ctx's error, never as a partial result. After Close the error is
// kv.ErrClosed.
//
// Regions scan concurrently, so batches of different regions arrive in no
// particular order; within a region they arrive in key order. The returned
// ScanResult carries the accounting.
//
// Everything is read from the snapshot: rows committed after it was taken are
// invisible, retries re-read the same immutable data, and concurrent ingest,
// flushes, compactions and splits neither block the stream nor are blocked by
// it. Several scans against one snapshot see one consistent view.
func (s *Snapshot) ScanStream(ctx context.Context, req StreamRequest, emit func(ScanBatch) error) (*ScanResult, error) {
	start := time.Now()
	tasks, err := s.scanTasks(req.ScanRequest)
	if err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return (&scanAccount{}).result(time.Since(start)), nil
	}
	return s.c.scanRegions(ctx, req.ScanRequest, tasks, start, emit)
}

// scanTasks groups the request's clipped ranges per pinned region, in region
// (= key) order, with each region's ranges sorted by start key.
func (s *Snapshot) scanTasks(req ScanRequest) ([]regionTask, error) {
	regions, err := s.pinned()
	if err != nil {
		return nil, err
	}
	tasks := make([]regionTask, 0, len(regions))
	byRegion := make(map[*Region]int, len(regions))
	for _, sr := range regions { // region order = key order
		r := sr.region
		for _, rng := range req.Ranges {
			if !rangesOverlap(rng.Start, rng.End, r.start, r.end) {
				continue
			}
			idx, ok := byRegion[r]
			if !ok {
				idx = len(tasks)
				byRegion[r] = idx
				tasks = append(tasks, regionTask{region: r, snap: sr.snap})
			}
			tasks[idx].ranges = append(tasks[idx].ranges, clipRange(rng, r))
		}
	}
	for i := range tasks {
		sort.Slice(tasks[i].ranges, func(a, b int) bool {
			return bytes.Compare(tasks[i].ranges[a].Start, tasks[i].ranges[b].Start) < 0
		})
	}
	return tasks, nil
}

// Close releases every pinned kv snapshot and region pin. Idempotent. The kv
// snapshots are closed before the regions are unpinned so a retired region's
// deferred teardown never races its own snapshot's reads.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	regions := s.regions
	s.mu.Unlock()
	var first error
	for _, sr := range regions {
		if err := sr.snap.Close(); err != nil && first == nil {
			first = err
		}
		sr.region.unpin()
	}
	return first
}

// pin marks the region held by one snapshot. Callers hold c.mu (read or
// write), which serializes pins against retire: a region can only be pinned
// while it is still in the live topology.
func (r *Region) pin() { r.pins.Add(1) }

// unpin releases one snapshot's hold. The last unpin of a retired region
// performs the deferred teardown.
func (r *Region) unpin() {
	if r.pins.Add(-1) == 0 && r.retired.Load() {
		r.reap()
	}
}

// retire marks the region replaced (a split committed its children). Caller
// holds c.mu, so no new pin can arrive. Teardown happens now if no snapshot
// holds the region, otherwise at the last unpin.
func (r *Region) retire() {
	r.retired.Store(true)
	if r.pins.Load() == 0 {
		r.reap()
	}
}

// reap closes the region's store and removes its directory — once. The
// retire/unpin race (retire sees pins drop just as the last unpin observes
// retired) is resolved by the CAS: exactly one caller tears down. Durability
// of the removal is best-effort — if a crash beats the SyncDir, Open deletes
// the resurrected directory as unreferenced debris.
func (r *Region) reap() {
	if !r.reaped.CompareAndSwap(false, true) {
		return
	}
	_ = r.db.Close()
	if err := r.fs.RemoveAll(r.dir); err == nil {
		_ = r.fs.SyncDir(r.rootDir)
	}
}
