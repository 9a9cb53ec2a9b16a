package cluster

import (
	"bytes"
	"context"
	"slices"
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
// A region whose scan fails fails the whole scan with a *RegionError naming
// the region and its key range; there is no partial answer, since a missing
// region could hold a true match. Rows streamed before the failure have
// already been delivered, each at most once. ctx is observed between rows;
// cancellation is returned as ctx's error, never as a RegionError. After
// Close the error is kv.ErrClosed.
//
// Regions scan concurrently, so batches of different regions arrive in no
// particular order; within a region they arrive in key order. The returned
// ScanResult carries the accounting.
//
// Everything is read from the snapshot: rows committed after it was taken are
// invisible, and concurrent ingest, flushes and compactions neither block the
// stream nor are blocked by it.
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
	return s.c.scanRegions(ctx, req.Filter, tasks, start, emit)
}

// scanTasks assigns the request's ranges to the regions they overlap, in
// region (= key) order, each region's ranges clipped to its bounds and sorted
// by start key. Ranges and regions are both walked in key order, once; all
// clipped ranges share one backing array.
func (s *Snapshot) scanTasks(req ScanRequest) ([]regionTask, error) {
	regions, err := s.pinned()
	if err != nil {
		return nil, err
	}
	byStart := func(a, b KeyRange) int { return bytes.Compare(a.Start, b.Start) }
	ranges := req.Ranges
	if !slices.IsSortedFunc(ranges, byStart) {
		ranges = slices.Clone(ranges)
		slices.SortStableFunc(ranges, byStart)
	}
	// Disjoint ranges cross each region boundary at most once between them.
	clipped := make([]KeyRange, 0, len(ranges)+len(regions))
	var tasks []regionTask
	lo := 0 // ranges before lo end at or before the current region
	for _, sr := range regions {
		r := sr.region
		for lo < len(ranges) && ranges[lo].End != nil && r.start != nil && bytes.Compare(ranges[lo].End, r.start) <= 0 {
			lo++
		}
		first := len(clipped)
		for _, rng := range ranges[lo:] {
			if r.end != nil && rng.Start != nil && bytes.Compare(rng.Start, r.end) >= 0 {
				break // this and every later range starts past the region
			}
			if rangesOverlap(rng.Start, rng.End, r.start, r.end) {
				clipped = append(clipped, clipRange(rng, r))
			}
		}
		if n := len(clipped); n > first {
			tasks = append(tasks, regionTask{region: r, snap: sr.snap, ranges: clipped[first:n:n]})
		}
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
