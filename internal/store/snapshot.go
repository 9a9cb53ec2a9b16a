package store

import (
	"context"
	"slices"

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
	// values is the store's sortedValues as published at snapshot time,
	// shared and immutable: HasValuesIn binary-searches it without any lock.
	values []int64
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
	return &Snapshot{s: s, snap: cs, values: s.sortedValues}, nil
}

// Store returns the parent store (for its immutable index and config).
func (sn *Snapshot) Store() *Store { return sn.s }

// HasValuesIn reports whether any trajectory in the snapshot has an index
// value in [lo, hi). Lock-free: the value set is immutable.
func (sn *Snapshot) HasValuesIn(lo, hi int64) bool {
	i, _ := slices.BinarySearch(sn.values, lo)
	return i < len(sn.values) && sn.values[i] < hi
}

// ScanRangesStream scans the given index-value ranges across every shard
// with an optional server-side filter pushed down into the regions — the
// storage half of Algorithm 3 — reading the pinned view only. Rows are
// delivered to emit in bounded batches as regions produce them, and the
// returned ScanResult carries the incrementally-accumulated accounting
// (Entries is nil). emit owns each batch and is never called concurrently; an
// error from emit aborts the scan and surfaces verbatim. ctx cancels the
// scan. A failing region fails it with a *cluster.RegionError naming the
// region and its key range.
//
// The unnamed int and StreamOptions parameters are benchmark-pinned:
// benchmark/trace.go passes `0, store.StreamOptions{}` positionally and a PR
// may not edit that module beside other code. Both go when ROADMAP item 1(C)'s
// benchmark PR moves that call.
func (sn *Snapshot) ScanRangesStream(ctx context.Context, ranges []xzstar.ValueRange, filter cluster.Filter, _ int, _ StreamOptions, emit func([]kv.Entry) error) (*cluster.ScanResult, error) {
	return sn.snap.ScanStream(ctx, cluster.StreamRequest{
		ScanRequest: cluster.ScanRequest{Ranges: sn.s.keyRanges(ranges), Filter: filter},
	}, func(b cluster.ScanBatch) error { return emit(b.Entries) })
}

// Close releases the pinned cluster snapshot. Idempotent.
func (sn *Snapshot) Close() error { return sn.snap.Close() }
