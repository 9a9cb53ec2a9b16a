// Package kv is an embedded, HBase-style log-structured key-value store:
// an in-memory skiplist memtable in front of a write-ahead log, flushed into
// immutable sorted-string tables (SSTables) with block indexes and bloom
// filters, merged on read by a heap iterator and periodically compacted.
//
// TraSS's evaluation measures I/O quantities — rows scanned, blocks and bytes
// read, range scans issued — so the store counts all of them (see Stats).
// The cluster layer in package cluster composes many of these stores into
// range-partitioned regions.
package kv

import (
	"bytes"
	"errors"
	"sync/atomic"
)

// ErrNotFound is returned by Get when the key does not exist.
var ErrNotFound = errors.New("kv: key not found")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kv: store is closed")

// errEmptyKey rejects writes with no key.
var errEmptyKey = errors.New("kv: empty key")

// Entry is one key-value pair.
type Entry struct {
	Key, Value []byte
}

// internal entry kinds.
const (
	kindValue     byte = 0
	kindTombstone byte = 1
)

// Iterator walks entries in ascending key order. The Key/Value slices are
// only valid until the next call to Next; callers that retain them must copy.
type Iterator interface {
	// Next advances to the next entry, returning false at the end or on
	// error (check Err).
	Next() bool
	Key() []byte
	Value() []byte
	Err() error
	// Close releases resources. Safe to call more than once.
	Close() error
}

// Stats are cumulative I/O counters for one store. All fields are updated
// atomically; read them with the Snapshot method of the owning DB.
type Stats struct {
	Puts          atomic.Int64 // entries written
	Gets          atomic.Int64 // point lookups served
	Scans         atomic.Int64 // scan iterators opened (one per ScanRanges, however many ranges)
	EntriesRead   atomic.Int64 // entries surfaced to callers
	EntriesWalked atomic.Int64 // entries visited internally (incl. shadowed)
	BlocksRead    atomic.Int64 // SSTable blocks fetched from disk
	BytesRead     atomic.Int64 // bytes fetched from disk
	BytesWritten  atomic.Int64 // bytes written to WAL and SSTables
	BloomNegative atomic.Int64 // point lookups cut short by bloom filters
	CacheHits     atomic.Int64 // block reads served from the block cache
	Flushes       atomic.Int64 // memtable flushes
	Compactions   atomic.Int64 // compaction runs

	WALSyncs     atomic.Int64 // WAL fsyncs issued (one per synced commit group)
	GroupCommits atomic.Int64 // commit groups committed (≥1 write each)

	CompactFailures atomic.Int64 // compaction rounds that failed
	// CompactDegraded is health, not a counter: set while the last compaction
	// round failed, cleared by the next successful round. Writes and reads
	// keep working degraded; the table count just stops shrinking.
	CompactDegraded atomic.Bool

	// MVCC gauges (current state, not cumulative): snapshots pinned and not
	// yet released, memtables frozen awaiting flush, and compacted-away
	// tables whose files still exist because a snapshot or iterator holds
	// them — the reaper's backlog.
	PinnedSnapshots atomic.Int64
	FrozenMemtables atomic.Int64
	ObsoleteTables  atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Puts, Gets, Scans          int64
	EntriesRead, EntriesWalked int64
	BlocksRead, BytesRead      int64
	BytesWritten               int64
	BloomNegative              int64
	CacheHits                  int64
	Flushes, Compactions       int64
	WALSyncs, GroupCommits     int64
	CompactFailures            int64
	CompactDegraded            bool
	// MVCC gauges: see Stats.
	PinnedSnapshots int64
	FrozenMemtables int64
	ObsoleteTables  int64
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Puts:            s.Puts.Load(),
		Gets:            s.Gets.Load(),
		Scans:           s.Scans.Load(),
		EntriesRead:     s.EntriesRead.Load(),
		EntriesWalked:   s.EntriesWalked.Load(),
		BlocksRead:      s.BlocksRead.Load(),
		BytesRead:       s.BytesRead.Load(),
		BytesWritten:    s.BytesWritten.Load(),
		BloomNegative:   s.BloomNegative.Load(),
		CacheHits:       s.CacheHits.Load(),
		Flushes:         s.Flushes.Load(),
		Compactions:     s.Compactions.Load(),
		WALSyncs:        s.WALSyncs.Load(),
		GroupCommits:    s.GroupCommits.Load(),
		CompactFailures: s.CompactFailures.Load(),
		CompactDegraded: s.CompactDegraded.Load(),
		PinnedSnapshots: s.PinnedSnapshots.Load(),
		FrozenMemtables: s.FrozenMemtables.Load(),
		ObsoleteTables:  s.ObsoleteTables.Load(),
	}
}

// Sub returns the counter-wise difference s - t; used to measure one query.
func (s StatsSnapshot) Sub(t StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Puts:            s.Puts - t.Puts,
		Gets:            s.Gets - t.Gets,
		Scans:           s.Scans - t.Scans,
		EntriesRead:     s.EntriesRead - t.EntriesRead,
		EntriesWalked:   s.EntriesWalked - t.EntriesWalked,
		BlocksRead:      s.BlocksRead - t.BlocksRead,
		BytesRead:       s.BytesRead - t.BytesRead,
		BytesWritten:    s.BytesWritten - t.BytesWritten,
		BloomNegative:   s.BloomNegative - t.BloomNegative,
		CacheHits:       s.CacheHits - t.CacheHits,
		Flushes:         s.Flushes - t.Flushes,
		Compactions:     s.Compactions - t.Compactions,
		WALSyncs:        s.WALSyncs - t.WALSyncs,
		GroupCommits:    s.GroupCommits - t.GroupCommits,
		CompactFailures: s.CompactFailures - t.CompactFailures,
		// Health and the MVCC gauges are state, not counters: the difference
		// of two snapshots keeps the newer (receiver's) state.
		CompactDegraded: s.CompactDegraded,
		PinnedSnapshots: s.PinnedSnapshots,
		FrozenMemtables: s.FrozenMemtables,
		ObsoleteTables:  s.ObsoleteTables,
	}
}

// Add returns the counter-wise sum s + t; used to aggregate across regions.
func (s StatsSnapshot) Add(t StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Puts:            s.Puts + t.Puts,
		Gets:            s.Gets + t.Gets,
		Scans:           s.Scans + t.Scans,
		EntriesRead:     s.EntriesRead + t.EntriesRead,
		EntriesWalked:   s.EntriesWalked + t.EntriesWalked,
		BlocksRead:      s.BlocksRead + t.BlocksRead,
		BytesRead:       s.BytesRead + t.BytesRead,
		BytesWritten:    s.BytesWritten + t.BytesWritten,
		BloomNegative:   s.BloomNegative + t.BloomNegative,
		CacheHits:       s.CacheHits + t.CacheHits,
		Flushes:         s.Flushes + t.Flushes,
		Compactions:     s.Compactions + t.Compactions,
		WALSyncs:        s.WALSyncs + t.WALSyncs,
		GroupCommits:    s.GroupCommits + t.GroupCommits,
		CompactFailures: s.CompactFailures + t.CompactFailures,
		// Aggregating across regions: one degraded store degrades the whole,
		// and the gauges sum — a cluster-wide backlog is the sum of per-region
		// backlogs.
		CompactDegraded: s.CompactDegraded || t.CompactDegraded,
		PinnedSnapshots: s.PinnedSnapshots + t.PinnedSnapshots,
		FrozenMemtables: s.FrozenMemtables + t.FrozenMemtables,
		ObsoleteTables:  s.ObsoleteTables + t.ObsoleteTables,
	}
}

// keyInRange reports whether k falls in [start, end); nil bounds are open.
func keyInRange(k, start, end []byte) bool {
	if start != nil && bytes.Compare(k, start) < 0 {
		return false
	}
	if end != nil && bytes.Compare(k, end) >= 0 {
		return false
	}
	return true
}
