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
// one region call, and the region calls run one after another, in region
// (= key) order, on the calling goroutine: the scan starts no goroutine, and
// emit runs on the caller. The batch emit receives is valid only during that
// call (the stream recycles it), while the key and value bytes of its entries
// are emit's to keep; returning an error from emit aborts the stream and
// surfaces that error verbatim.
//
// A region whose scan fails fails the whole scan with a *RegionError naming
// the region and its key range; there is no partial answer, since a missing
// region could hold a true match. Rows streamed before the failure have
// already been delivered, each at most once. ctx is observed between rows;
// cancellation is returned as ctx's error, never as a RegionError. After
// Close the error is kv.ErrClosed.
//
// Batches arrive region by region, in key order, and a region walks its
// ranges in order of start key, each in key order; so for disjoint ranges,
// as every store scan's are, the batches, concatenated, are in key order.
// The returned ScanResult carries the accounting.
//
// Everything is read from the snapshot: rows committed after it was taken are
// invisible, and concurrent ingest, flushes and compactions neither block the
// stream nor are blocked by it.
// Several scans against one snapshot see one consistent view.
func (s *Snapshot) ScanStream(ctx context.Context, req StreamRequest, emit func(ScanBatch) error) (*ScanResult, error) {
	return s.scan(ctx, req.ScanRequest, nil, emit)
}

// Cursor scans one snapshot many times, as a best-first search does: each
// region's kv iterator is opened at the region's first scan, re-targeted at
// every later one and closed by Close, where Snapshot.ScanStream opens and
// closes one per region call. A Cursor is not safe for concurrent use: its
// scans run one after another. It does not keep the snapshot open; a scan
// after the snapshot's Close, or the cursor's, fails with kv.ErrClosed.
type Cursor struct {
	snap   *Snapshot
	slots  []cursorSlot // one per region, indexed by region id
	tasks  []regionTask // the last scan's region tasks, reused by the next
	closed bool
}

// cursorSlot holds one region's iterator between a cursor's scans; it is nil
// until the region's first scan.
type cursorSlot struct {
	it kv.RangeIterator
}

// open returns the iterator a region call walks over t's ranges: the slot's,
// re-targeted at them (and opened at the slot's first call), or with no slot
// a new one.
func (sl *cursorSlot) open(t regionTask) kv.RangeIterator {
	if sl == nil {
		return t.snap.ScanRanges(t.ranges)
	}
	if sl.it == nil {
		sl.it = t.snap.ScanRanges(t.ranges)
	} else {
		sl.it.Reset(t.ranges)
	}
	return sl.it
}

// done ends a region call's use of it: a slot keeps its iterator for the
// cursor's next scan; with no slot it is closed.
func (sl *cursorSlot) done(it kv.RangeIterator) {
	if sl == nil {
		_ = it.Close()
	}
}

// Cursor returns a cursor over the snapshot. Close it when the scans are
// done: it holds the table references of every region it has scanned.
func (s *Snapshot) Cursor() *Cursor {
	return &Cursor{snap: s, slots: make([]cursorSlot, len(s.regions))}
}

// ScanStream is Snapshot.ScanStream through the cursor's iterators: the same
// region calls, RPC accounting, batches, errors and guarantees.
func (c *Cursor) ScanStream(ctx context.Context, req StreamRequest, emit func(ScanBatch) error) (*ScanResult, error) {
	if c.closed {
		return nil, kv.ErrClosed
	}
	return c.snap.scan(ctx, req.ScanRequest, c, emit)
}

// Close closes every region iterator the cursor opened. Idempotent.
func (c *Cursor) Close() error {
	c.closed = true
	var first error
	for i := range c.slots {
		if it := c.slots[i].it; it != nil {
			c.slots[i].it = nil
			if err := it.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// scan is the one scan path behind ScanStream and Cursor.ScanStream; cur is
// nil for the first.
func (s *Snapshot) scan(ctx context.Context, req ScanRequest, cur *Cursor, emit func(ScanBatch) error) (*ScanResult, error) {
	start := time.Now()
	var tasks []regionTask
	if cur != nil {
		tasks = cur.tasks[:0]
	}
	tasks, err := s.scanTasks(req, tasks)
	if err != nil {
		return nil, err
	}
	if cur != nil {
		cur.tasks = tasks
	}
	res := &ScanResult{}
	if err := s.c.scanRegions(ctx, req.Filter, tasks, cur, res, emit); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// scanTasks assigns the request's ranges to the regions they overlap, in
// region (= key) order, each region's ranges clipped to its bounds and sorted
// by start key. Ranges and regions are both walked in key order, once. A
// region whose ranges are a run of the sorted request that all lie within its
// bounds (every store scan: its ranges are built shard by shard) scans that
// run in place; the clipped ranges of any other region share one backing
// array. The tasks are appended to tasks, which is first grown to hold one
// per region if it cannot.
func (s *Snapshot) scanTasks(req ScanRequest, tasks []regionTask) ([]regionTask, error) {
	regions, err := s.pinned()
	if err != nil {
		return nil, err
	}
	byStart := func(a, b KeyRange) int { return bytes.Compare(a.Start, b.Start) }
	ranges := req.Ranges
	if !slices.IsSortedFunc(ranges, byStart) {
		s.c.sorts.Add(1)
		ranges = slices.Clone(ranges)
		slices.SortStableFunc(ranges, byStart)
	}
	if cap(tasks) < len(regions) {
		tasks = make([]regionTask, 0, len(regions))
	}
	var clipped []KeyRange
	lo := 0 // ranges before lo end at or before the current region
	for _, sr := range regions {
		r := sr.region
		for lo < len(ranges) && ranges[lo].End != nil && r.start != nil && bytes.Compare(ranges[lo].End, r.start) <= 0 {
			lo++
		}
		hi, inside := lo, true
		for ; hi < len(ranges); hi++ {
			rng := ranges[hi]
			if r.end != nil && rng.Start != nil && bytes.Compare(rng.Start, r.end) >= 0 {
				break // this and every later range starts past the region
			}
			inside = inside && rangesOverlap(rng.Start, rng.End, r.start, r.end) && !crossesBounds(rng, r)
		}
		if hi == lo {
			continue
		}
		if inside {
			tasks = append(tasks, regionTask{region: r, snap: sr.snap, ranges: ranges[lo:hi:hi]})
			continue
		}
		if clipped == nil {
			// Disjoint ranges cross each region boundary at most once
			// between them.
			clipped = make([]KeyRange, 0, len(ranges)+len(regions))
		}
		first := len(clipped)
		for _, rng := range ranges[lo:hi] {
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
