// Package server turns the embedded TraSS library into a served system:
// cmd/trassd speaks the HTTP/JSON protocol defined here, streaming query
// results over chunked NDJSON as the refine workers emit them, with
// per-request deadlines and client disconnects mapped onto the engine's
// context plumbing, a bounded in-flight request limit with 429 shedding,
// pagination for non-streaming clients, and graceful SIGTERM drain.
//
// Wire protocol (all under POST /v1/query):
//
//   - Non-streaming (default): one JSON QueryResponse — matches in the same
//     deterministic order the embedded *SearchContext variants return
//     (row-key order for threshold/range, ascending (distance, id) for
//     top-k/point-kNN), an optional pagination token, and the QueryStats.
//   - Streaming (Stream:true): chunked NDJSON. Each match is one line
//     {"match":{...}} written as refinement produces it; the final line is a
//     footer {"done":true,...} carrying the result count, the QueryStats
//     (stream backpressure included), and any error — the
//     trailer a chunked response cannot put in headers. A query that fails
//     before its first line gets the non-streaming error status instead.
//
// GET /healthz reports liveness (503 while draining), GET /statsz the
// server's request counters plus the storage layer's health snapshot,
// including CompactDegraded.
package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"

	trass "repro"
	"repro/internal/geo"
)

// Query kinds: the four query paths trassd serves. The time-window variants
// are the same kinds with TimeStart/TimeEnd set.
const (
	KindThreshold = "threshold"
	KindTopK      = "topk"
	KindRange     = "range"
	KindKNN       = "knn"
)

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Kind selects the query path: threshold | topk | range | knn.
	Kind string `json:"kind"`

	// QueryID names a stored trajectory as the query (resolved server-side);
	// Points supplies one inline instead. Threshold and top-k require exactly
	// one of them.
	QueryID string       `json:"query_id,omitempty"`
	Points  [][2]float64 `json:"points,omitempty"`

	// Eps is the threshold (normalized plane units) for kind=threshold.
	Eps float64 `json:"eps,omitempty"`
	// K is the result bound for kind=topk and kind=knn, 1 to 10,000.
	K int `json:"k,omitempty"`
	// Rect is the spatial window [minX,minY,maxX,maxY] for kind=range.
	Rect *[4]float64 `json:"rect,omitempty"`
	// Point is the query location for kind=knn.
	Point *[2]float64 `json:"point,omitempty"`

	// TimeStart/TimeEnd restrict any kind to trajectories observed within
	// [TimeStart, TimeEnd] Unix seconds; zero leaves a side unbounded.
	TimeStart int64 `json:"time_start,omitempty"`
	TimeEnd   int64 `json:"time_end,omitempty"`

	// IncludePoints ships each match's full point sequence. Off by default:
	// id+distance is enough for most clients and keeps the wire cheap.
	IncludePoints bool `json:"include_points,omitempty"`

	// Stream selects chunked NDJSON delivery. Mutually exclusive with
	// pagination.
	Stream bool `json:"stream,omitempty"`

	// PageSize bounds the matches in one non-streaming response (0 = all).
	// PageToken resumes from a previous response's NextPageToken.
	PageSize  int    `json:"page_size,omitempty"`
	PageToken string `json:"page_token,omitempty"`

	// DeadlineMS is the client's per-request deadline in milliseconds; the
	// server clamps it to its configured maximum. 0 applies the server
	// default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// WireMatch is one result on the wire.
type WireMatch struct {
	ID       string       `json:"id"`
	Distance float64      `json:"distance"`
	Points   [][2]float64 `json:"points,omitempty"`
}

// WireStats is QueryStats flattened for the wire: the per-query numbers the
// paper's evaluation tracks plus the stream's backpressure counters. Retries
// is always zero (a failed region call is not retried).
type WireStats struct {
	PruneNS       int64 `json:"prune_ns"`
	ScanNS        int64 `json:"scan_ns"`
	RefineNS      int64 `json:"refine_ns"`
	RefineCPUNS   int64 `json:"refine_cpu_ns"`
	RefineWorkers int   `json:"refine_workers"`

	Ranges       int   `json:"ranges"`
	RowsScanned  int64 `json:"rows_scanned"`
	Retrieved    int64 `json:"retrieved"`
	BytesShipped int64 `json:"bytes_shipped"`
	RPCs         int64 `json:"rpcs"`
	Retries      int64 `json:"retries"`
	Refined      int   `json:"refined"`
	Results      int   `json:"results"`

	StreamBatches   int64 `json:"stream_batches"`
	StreamPeakDepth int   `json:"stream_peak_depth"`
	StreamStallNS   int64 `json:"stream_stall_ns"`
}

// statsToWire flattens engine stats; a nil input yields nil.
func statsToWire(st *trass.QueryStats) *WireStats {
	if st == nil {
		return nil
	}
	return &WireStats{
		PruneNS:         st.PruneTime.Nanoseconds(),
		ScanNS:          st.ScanTime.Nanoseconds(),
		RefineNS:        st.RefineTime.Nanoseconds(),
		RefineCPUNS:     st.RefineCPUTime.Nanoseconds(),
		RefineWorkers:   st.RefineWorkers,
		Ranges:          st.Ranges,
		RowsScanned:     st.RowsScanned,
		Retrieved:       st.Retrieved,
		BytesShipped:    st.BytesShipped,
		RPCs:            st.RPCs,
		Retries:         st.Retries,
		Refined:         st.Refined,
		Results:         st.Results,
		StreamBatches:   st.StreamBatches,
		StreamPeakDepth: st.StreamPeakDepth,
		StreamStallNS:   st.StreamStallTime.Nanoseconds(),
	}
}

// QueryResponse is the non-streaming response body.
type QueryResponse struct {
	Matches []WireMatch `json:"matches"`
	// NextPageToken resumes the result list where this page ended; empty on
	// the last page.
	NextPageToken string     `json:"next_page_token,omitempty"`
	Stats         *WireStats `json:"stats,omitempty"`
}

// StreamLine is one NDJSON line of a streaming response: either a match or
// the terminal footer.
type StreamLine struct {
	Match *WireMatch `json:"match,omitempty"`
	// Done marks the footer line — always the last line of a healthy stream.
	// A stream that ends without one was cut off.
	Done    bool       `json:"done,omitempty"`
	Results int        `json:"results,omitempty"`
	Stats   *WireStats `json:"stats,omitempty"`
	// Error is the failure of a query that had already streamed a line,
	// delivered in-band: by then the 200 header is long gone.
	Error string `json:"error,omitempty"`
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatszResponse is GET /statsz: serving counters plus the storage layer's
// health snapshot.
type StatszResponse struct {
	InFlight int   `json:"in_flight"`
	Served   int64 `json:"served"`
	Shed     int64 `json:"shed"`
	Draining bool  `json:"draining"`
	// Trajectories is the stored trajectory count.
	Trajectories int64 `json:"trajectories"`
	// CompactDegraded mirrors StorageStats().KV.CompactDegraded: true while
	// background compaction is failing (the store still serves, merges lag).
	CompactDegraded bool `json:"compact_degraded"`
	// MVCC gauges, mirrored from Storage.KV for quick scraping: snapshots
	// currently pinned across all regions, memtables frozen awaiting flush,
	// and compacted-away tables whose files await their last reference (the
	// reaper's backlog). A stuck reader shows up here as a pinned snapshot
	// that never drops and an obsolete-table count that never drains.
	PinnedSnapshots int64 `json:"pinned_snapshots"`
	FrozenMemtables int64 `json:"frozen_memtables"`
	ObsoleteTables  int64 `json:"obsolete_tables"`
	// Storage is the full storage-layer counter snapshot.
	Storage trass.StorageStats `json:"storage"`
}

// matchToWire converts one engine match.
func matchToWire(m trass.Match, includePoints bool) WireMatch {
	wm := WireMatch{ID: m.ID, Distance: m.Distance}
	if includePoints {
		wm.Points = make([][2]float64, len(m.Points))
		for i, p := range m.Points {
			wm.Points[i] = [2]float64{p.X, p.Y}
		}
	}
	return wm
}

// toTrajectory builds the query trajectory from inline points.
func toTrajectory(id string, pts [][2]float64) (*trass.Trajectory, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("empty query point sequence")
	}
	ps := make([]trass.Point, len(pts))
	for i, p := range pts {
		ps[i] = trass.Point{X: p[0], Y: p[1]}
	}
	if err := geo.CheckUnit(ps...); err != nil {
		return nil, err
	}
	return trass.NewTrajectory(id, ps), nil
}

// pageToken is the opaque pagination cursor: the offset into the full,
// deterministically ordered result list. Stateless by design — the server
// re-runs the query and slices — so tokens survive restarts and need no
// server-side cursor table (the shape of the pagination helpers in the
// geth-sharding gateway).
type pageToken struct {
	Offset int `json:"offset"`
}

// encodePageToken renders a cursor. A zero offset means "no more pages" to
// callers and encodes as "".
func encodePageToken(offset int) string {
	if offset <= 0 {
		return ""
	}
	b, err := json.Marshal(pageToken{Offset: offset})
	if err != nil {
		// A two-field struct of ints cannot fail to marshal; keep the
		// signature clean for callers.
		return ""
	}
	return base64.URLEncoding.EncodeToString(b)
}

// decodePageToken parses a cursor; "" is offset 0.
func decodePageToken(tok string) (int, error) {
	if tok == "" {
		return 0, nil
	}
	b, err := base64.URLEncoding.DecodeString(strings.TrimSpace(tok))
	if err != nil {
		return 0, fmt.Errorf("malformed page token: %w", err)
	}
	var pt pageToken
	if err := json.Unmarshal(b, &pt); err != nil {
		return 0, fmt.Errorf("malformed page token: %w", err)
	}
	if pt.Offset < 0 {
		return 0, fmt.Errorf("malformed page token: negative offset")
	}
	return pt.Offset, nil
}
