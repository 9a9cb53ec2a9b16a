package cluster

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/kv"
)

// MVCC snapshot reads at the cluster layer. A Snapshot pins one kv snapshot
// per region, so a long ScanStream runs against a single view of the whole
// table: it neither blocks ingest nor is blocked by it.

// Snapshot is an immutable point-in-time view of the whole cluster. Methods
// are safe for concurrent use with each other and with writes on the parent
// cluster; Close releases every pinned kv snapshot (idempotent) and does no
// filesystem I/O of its own. A Snapshot outlives Cluster.Close, as each kv
// snapshot outlives its store.
type Snapshot struct {
	c *Cluster

	// regions is immutable after construction (mu only guards the Close
	// handshake): the cluster's regions in key order.
	mu      sync.Mutex
	closed  bool
	regions []snapRegion
}

// snapRegion pairs one region with the kv snapshot serving its reads.
type snapRegion struct {
	region *Region
	snap   *kv.Snapshot
}

// Snapshot pins a kv snapshot of every region. Rows a concurrent writer
// commits after this call are invisible to the returned view.
func (c *Cluster) Snapshot() (*Snapshot, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, kv.ErrClosed
	}
	regions := make([]snapRegion, 0, len(c.regions))
	for _, r := range c.regions {
		ks, err := r.db.Snapshot()
		if err != nil {
			for _, sr := range regions {
				_ = sr.snap.Close()
			}
			return nil, err
		}
		regions = append(regions, snapRegion{region: r, snap: ks})
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
	return regions[s.c.regionIndex(key)].snap.Get(key)
}

// ScanStream is the cluster's one scan entry. It executes the request across
// every region it overlaps, delivering rows to emit in batches (at most 64
// rows) as they are produced. Ranges falling in one region are served by
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
// flushes and compactions neither block the stream nor are blocked by it.
// Several scans against one snapshot see one consistent view.
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

// scanTasks groups the request's clipped ranges per region, in region (= key)
// order, with each region's ranges sorted by start key.
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

// Close releases every pinned kv snapshot. Idempotent.
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
	}
	return first
}
