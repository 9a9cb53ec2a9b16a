package cluster

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/kv"
)

// KeyRange is a half-open row-key range [Start, End); nil bounds are open.
// It is kv's range, so a region call hands its ranges to kv as they are.
type KeyRange = kv.Range

// Filter is a server-side row predicate, the coprocessor push-down hook.
// It runs inside the region scan, on the goroutine that called ScanStream;
// rejected rows never leave the region.
type Filter func(key, value []byte) bool

// ScanRequest describes a multi-range filtered scan, the access pattern
// global pruning produces (Algorithm 3: addAllScanRange + addFilter).
type ScanRequest struct {
	Ranges []KeyRange
	Filter Filter // optional
}

// RegionError records one region's scan failure: which region, covering
// which key range, and why. It is the error ScanStream returns when a region
// fails.
type RegionError struct {
	RegionID   int
	Start, End []byte // the region's bounds; nil = unbounded
	Err        error
}

func (e *RegionError) Error() string {
	return fmt.Sprintf("cluster: region %d [%s, %s): %v",
		e.RegionID, boundString(e.Start), boundString(e.End), e.Err)
}

func (e *RegionError) Unwrap() error { return e.Err }

func boundString(b []byte) string {
	if b == nil {
		return "-inf"
	}
	return fmt.Sprintf("%q", b)
}

// ScanResult carries the per-query I/O accounting that the evaluation section
// reports; the rows themselves went to ScanStream's emit callback.
type ScanResult struct {
	RowsScanned  int64 // rows visited inside regions (before filtering)
	RowsReturned int64 // rows shipped to the client
	BytesShipped int64 // key+value bytes that crossed the "network"
	RPCs         int64 // region calls issued (all ranges per region batch)
	// Retries is always zero: a failed region call is not retried. The field
	// stays until the benchmark stops reading it.
	Retries int64
	Elapsed time.Duration
}

// regionTask is all the work one region receives for a request: its clipped
// ranges, served by a single "RPC" — mirroring an HBase client that opens
// one scanner (or one coprocessor exec) per region. snap is the pinned kv
// view the scan reads from (see Snapshot.scanTasks in snapshot.go).
type regionTask struct {
	region *Region
	snap   *kv.Snapshot
	ranges []KeyRange
}

func regionError(r *Region, err error) *RegionError {
	return &RegionError{RegionID: r.id, Start: r.start, End: r.end, Err: err}
}

// rangesOverlap reports whether [s1,e1) and [s2,e2) intersect; nil = open.
func rangesOverlap(s1, e1, s2, e2 []byte) bool {
	if e1 != nil && s2 != nil && bytes.Compare(e1, s2) <= 0 {
		return false
	}
	if e2 != nil && s1 != nil && bytes.Compare(e2, s1) <= 0 {
		return false
	}
	return true
}

// crossesBounds reports whether rng reaches below r's start or past its end,
// where clipRange would cut it.
func crossesBounds(rng KeyRange, r *Region) bool {
	return r.start != nil && (rng.Start == nil || bytes.Compare(rng.Start, r.start) < 0) ||
		r.end != nil && (rng.End == nil || bytes.Compare(rng.End, r.end) > 0)
}

// clipRange intersects a request range with a region's bounds.
func clipRange(rng KeyRange, r *Region) KeyRange {
	out := rng
	if r.start != nil && (out.Start == nil || bytes.Compare(out.Start, r.start) < 0) {
		out.Start = r.start
	}
	if r.end != nil && (out.End == nil || bytes.Compare(out.End, r.end) > 0) {
		out.End = r.end
	}
	return out
}
