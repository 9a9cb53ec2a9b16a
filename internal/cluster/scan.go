package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/kv"
)

// KeyRange is a half-open row-key range [Start, End); nil bounds are open.
type KeyRange struct {
	Start, End []byte
}

// Filter is a server-side row predicate, the coprocessor push-down hook.
// It runs inside the region scan; rejected rows never leave the region.
// Implementations must be safe for concurrent use: regions evaluate the
// filter in parallel.
type Filter func(key, value []byte) bool

// ScanRequest describes a multi-range filtered scan, the access pattern
// global pruning produces (Algorithm 3: addAllScanRange + addFilter).
type ScanRequest struct {
	Ranges []KeyRange
	Filter Filter // optional
	// AllowPartial degrades instead of failing: when a region's scan cannot
	// be completed (even after retries), its rows are omitted, the failure
	// is recorded in ScanResult.RegionErrors, and the surviving regions'
	// rows are returned. Without it the first region failure fails the scan.
	AllowPartial bool
}

// RegionError records one region's scan failure: which region, covering
// which key range, and why. It is the error type Scan returns (wrapped) in
// strict mode and collects in ScanResult.RegionErrors in AllowPartial mode.
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

// ScanResult carries the shipped rows and the per-query I/O accounting that
// the evaluation section reports.
type ScanResult struct {
	Entries      []kv.Entry
	RowsScanned  int64 // rows visited inside regions (all attempts, before filtering)
	RowsReturned int64 // rows shipped to the client
	BytesShipped int64 // key+value bytes that crossed the "network"
	RPCs         int64 // region call attempts issued (all ranges per region batch)
	Retries      int64 // region call attempts beyond each call's first
	Elapsed      time.Duration
	// RegionErrors lists the regions whose rows are missing from Entries;
	// only ever non-empty with ScanRequest.AllowPartial.
	RegionErrors []*RegionError
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

// Scan executes the request across all overlapping regions and collects the
// shipped rows, sorted by key. It is a thin collect-all wrapper over
// ScanStream; ranges falling in the same region are batched into one region
// call, and region calls run in parallel (bounded by Config.Parallelism).
//
// Transient region errors (kv errors exposing `Transient() bool` = true) are
// retried per region with capped exponential backoff before counting as
// failures. ctx cancels the scan between rows; cancellation is returned as
// ctx's error, never as a partial result.
//
// The collected result is all-or-nothing per region: with AllowPartial, a
// region that fails after streaming a prefix of its rows contributes nothing
// to Entries (the prefix is dropped here and deducted from the shipped-row
// accounting). Streaming consumers that want those prefixes should use
// ScanStream directly.
func (c *Cluster) Scan(ctx context.Context, req ScanRequest) (*ScanResult, error) {
	return collectScan(ctx, req, c.ScanStream)
}

// collectScan is the collect-all wrapper shared by Cluster.Scan and
// Snapshot.Scan: stream everything, drop the prefixes of failed regions,
// sort by key.
func collectScan(ctx context.Context, req ScanRequest, stream func(context.Context, StreamRequest, func(ScanBatch) error) (*ScanResult, error)) (*ScanResult, error) {
	start := time.Now()
	perRegion := map[int][]kv.Entry{}
	res, err := stream(ctx, StreamRequest{ScanRequest: req}, func(b ScanBatch) error {
		perRegion[b.RegionID] = append(perRegion[b.RegionID], b.Entries...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, re := range res.RegionErrors {
		for _, e := range perRegion[re.RegionID] {
			res.RowsReturned--
			res.BytesShipped -= int64(len(e.Key) + len(e.Value))
		}
		delete(perRegion, re.RegionID)
	}
	for _, entries := range perRegion {
		res.Entries = append(res.Entries, entries...)
	}
	sort.Slice(res.Entries, func(i, j int) bool {
		return bytes.Compare(res.Entries[i].Key, res.Entries[j].Key) < 0
	})
	res.Elapsed = time.Since(start)
	return res, nil
}

func regionError(r *Region, err error) *RegionError {
	return &RegionError{RegionID: r.id, Start: r.start, End: r.end, Err: err}
}

// isTransient reports whether err (or anything it wraps) declares itself
// transient — worth retrying.
func isTransient(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
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
