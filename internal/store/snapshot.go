package store

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/kv"
	"repro/internal/xzstar"
)

// MVCC snapshot reads at the store layer. A Snapshot pairs a pinned cluster
// snapshot (one consistent kv view per region) with the distinct-index-value
// set published at that moment, which no write ever mutates, so a whole query
// — global pruning probes via HasValuesIn plus every range scan it plans —
// runs against one point-in-time view of the table. Concurrent ingest neither
// blocks the query nor shifts the ground truth under its feet, and best-first
// top-k cannot be misled by a value set that changed between two of its space
// expansions.

// Snapshot is an immutable point-in-time view of the trajectory table.
// Methods are safe for concurrent use with each other and with writes to the
// parent store; Close releases the pinned storage (idempotent).
type Snapshot struct {
	s    *Store
	snap *cluster.Snapshot
	// values is the store's value set as published at snapshot time, shared
	// and immutable: HasValuesIn searches it without any lock.
	values valueSet
}

// Snapshot pins the store's current state: one kv snapshot per region and the
// distinct-value set global pruning consults, read at one instant under the
// metadata lock. PutBatch publishes a batch's values before it commits and
// retires the vacated ones after, both under that lock, so the set covers
// every row the pinned view holds.
func (s *Store) Snapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, err := s.cluster.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Snapshot{s: s, snap: cs, values: s.values}, nil
}

// Store returns the parent store (for its immutable index and config).
func (sn *Snapshot) Store() *Store { return sn.s }

// HasValuesIn reports whether any trajectory in the snapshot has an index
// value in [lo, hi). Lock-free: the value set is immutable.
func (sn *Snapshot) HasValuesIn(lo, hi int64) bool {
	return sn.values.hasIn(lo, hi)
}

// ScanRangesStream scans the given index-value ranges across every shard
// with an optional server-side filter pushed down into the regions — the
// storage half of Algorithm 3 — reading the pinned view only. Rows are
// delivered to emit in bounded batches as regions produce them, and the
// returned ScanResult carries the incrementally-accumulated accounting
// (Entries is nil). A batch is valid only during the emit call that receives
// it (the entries' key and value bytes are emit's to keep), and emit is never
// called concurrently; an error from emit aborts the scan and surfaces
// verbatim. ctx cancels the scan. A failing region fails it with a
// *cluster.RegionError naming the region and its key range.
//
// The unnamed int and StreamOptions parameters are benchmark-pinned:
// benchmark/trace.go passes `0, store.StreamOptions{}` positionally and a PR
// may not edit that module beside other code. Both go when ROADMAP item 1(C)'s
// benchmark PR moves that call.
func (sn *Snapshot) ScanRangesStream(ctx context.Context, ranges []xzstar.ValueRange, filter cluster.Filter, _ int, _ StreamOptions, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
	// ScanStream joins every region call before it returns, and neither its
	// result nor its error refers to the ranges, so the buffer goes back then.
	buf := keyRangePool.Get().(*keyRangeBuf)
	defer keyRangePool.Put(buf)
	return sn.snap.ScanStream(ctx, cluster.StreamRequest{
		ScanRequest: cluster.ScanRequest{Ranges: sn.s.keyRanges(buf, ranges), Filter: filter},
	}, func(b cluster.ScanBatch) error { return emit(b.Entries) })
}

// Cursor scans the snapshot many times, as a best-first search does, keeping
// one kv iterator per region between its scans (see cluster.Cursor). It is
// not safe for concurrent use. Close releases the table references its
// iterators hold, whether or not the snapshot is still open; a scan after
// Close fails with kv.ErrClosed.
type Cursor struct {
	s   *Store
	cur *cluster.Cursor
	// buf holds the row-key ranges of the scan in progress; the next scan
	// overwrites them. It comes from keyRangePool and goes back at Close, so
	// a query starts with a buffer an earlier one grew.
	buf *keyRangeBuf
}

// Cursor returns a cursor over the snapshot; Close releases it.
func (sn *Snapshot) Cursor() *Cursor {
	return &Cursor{s: sn.s, cur: sn.snap.Cursor(), buf: keyRangePool.Get().(*keyRangeBuf)}
}

// ScanRangesStream is Snapshot.ScanRangesStream through the cursor: the same
// rows, batches, accounting and errors.
func (c *Cursor) ScanRangesStream(ctx context.Context, ranges []xzstar.ValueRange, filter cluster.Filter, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
	if c.buf == nil {
		return nil, kv.ErrClosed // Close took the buffer back
	}
	return c.cur.ScanStream(ctx, cluster.StreamRequest{
		ScanRequest: cluster.ScanRequest{Ranges: c.s.keyRanges(c.buf, ranges), Filter: filter},
	}, func(b cluster.ScanBatch) error { return emit(b.Entries) })
}

// Close closes the cursor's region iterators. Idempotent.
func (c *Cursor) Close() error {
	err := c.cur.Close()
	if c.buf != nil {
		keyRangePool.Put(c.buf)
		c.buf = nil
	}
	return err
}

// Close releases the pinned cluster snapshot. Idempotent.
func (sn *Snapshot) Close() error { return sn.snap.Close() }
