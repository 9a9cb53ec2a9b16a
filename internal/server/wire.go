// Package server turns the embedded TraSS library into a served system:
// cmd/trassd speaks the HTTP/JSON protocol defined here, streaming query
// results over chunked NDJSON as the refine workers emit them, with
// per-request deadlines and client disconnects mapped onto the engine's
// context plumbing, a bounded in-flight request limit with 429 shedding,
// and graceful SIGTERM drain.
//
// Wire protocol (all under POST /v1/query):
//
//   - Non-streaming (default): one JSON QueryResponse — every match in the
//     same deterministic order the embedded *SearchContext variants return
//     (row-key order for threshold/range, ascending (distance, id) for
//     top-k/point-kNN), and the QueryStats.
//   - Streaming (Stream:true): chunked NDJSON. Each match is one line
//     {"match":{...}} written as refinement produces it (top-k/point-kNN:
//     in (distance, id) order once the search ends); the final line is a
//     footer {"done":true,...} carrying the result count, the QueryStats
//     (stream backpressure included), and any error — the
//     trailer a chunked response cannot put in headers. A query that fails
//     before its first line gets the non-streaming error status instead.
//
// Match objects, collected or streamed, are the bulk of a reply and are not
// encoded through reflection: appendMatch writes each one and the client's
// parseMatchLine reads a match line back, declining any line of another
// shape to json.Unmarshal. Their bytes are encoding/json's, byte for byte;
// FuzzMatchLine and TestMatchBytesMatchEncodingJSON pin both against it.
// Requests, footers, stats and errors go through encoding/json.
//
// Two things are a 400, on both paths: a body that is not one QueryRequest
// (an unknown field included), and a query the engine or the wire cannot run
// as written, whose error wraps trass.ErrInvalidQuery.
//
// GET /healthz reports liveness (503 while draining), GET /statsz the
// server's request counters plus the storage layer's health snapshot,
// including CompactDegraded.
package server

import (
	"encoding/json"
	"math"
	"strconv"

	trass "repro"
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

	// Stream selects chunked NDJSON delivery.
	Stream bool `json:"stream,omitempty"`

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
	DecodeNS      int64 `json:"decode_ns"`
	KernelNS      int64 `json:"kernel_ns"`
	SeedNS        int64 `json:"seed_ns"`
	RefineWorkers int   `json:"refine_workers"`

	Ranges       int   `json:"ranges"`
	RowsScanned  int64 `json:"rows_scanned"`
	RowsWalked   int64 `json:"rows_walked"`
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
		DecodeNS:        st.DecodeTime.Nanoseconds(),
		KernelNS:        st.KernelTime.Nanoseconds(),
		SeedNS:          st.SeedTime.Nanoseconds(),
		RefineWorkers:   st.RefineWorkers,
		Ranges:          st.Ranges,
		RowsScanned:     st.RowsScanned,
		RowsWalked:      st.RowsWalked,
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
	Stats   *WireStats  `json:"stats,omitempty"`
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

// appendMatch appends m as the JSON object encoding/json writes for its
// WireMatch: keys id, distance, then points when includePoints is set and m
// has any. A non-finite number is an error, as it is for encoding/json.
func appendMatch(b []byte, m trass.Match, includePoints bool) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = appendString(b, m.ID)
	b = append(b, `,"distance":`...)
	b, err := appendFloat(b, m.Distance)
	if err != nil {
		return b, err
	}
	if includePoints && len(m.Points) > 0 {
		b = append(b, `,"points":[`...)
		for i, p := range m.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			if b, err = appendFloat(b, p.X); err != nil {
				return b, err
			}
			b = append(b, ',')
			if b, err = appendFloat(b, p.Y); err != nil {
				return b, err
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendString appends s quoted. Printable ASCII other than '"', '\\' and
// the HTML-escaped '<', '>', '&' is copied; a string with any other byte is
// left to encoding/json, whose escaping it must match.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f formatted by encoding/json's float64 rule: the
// shortest decimal that round-trips, in exponent form below 1e-6 or from
// 1e21 up, with a two-digit negative exponent cut to one.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// parseMatchLine reads a stream line of exactly the shape appendMatch
// writes, {"match":{...}} with no whitespace, keys in appendMatch's order and
// an id without escapes, into what json.Unmarshal would decode from it. Any
// other line returns false and is left to json.Unmarshal. Points are read
// into *scratch and then copied out, so the returned match owns its points.
func parseMatchLine(line []byte, scratch *[][2]float64) (WireMatch, bool) {
	var m WireMatch
	p := wireParser{b: line}
	if !p.lit(`{"match":{"id":"`) {
		return m, false
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' {
		if c := p.b[p.i]; c < 0x20 || c >= 0x80 || c == '\\' {
			return m, false
		}
		p.i++
	}
	end := p.i
	if !p.lit(`","distance":`) {
		return m, false
	}
	var ok bool
	if m.Distance, ok = p.number(); !ok {
		return m, false
	}
	if p.lit(`,"points":[`) {
		pts := (*scratch)[:0]
		for {
			var pt [2]float64
			if !p.lit("[") {
				return m, false
			}
			if pt[0], ok = p.number(); !ok || !p.lit(",") {
				return m, false
			}
			if pt[1], ok = p.number(); !ok || !p.lit("]") {
				return m, false
			}
			pts = append(pts, pt)
			if !p.lit(",") {
				break
			}
		}
		*scratch = pts
		if !p.lit("]") {
			return m, false
		}
		m.Points = append([][2]float64(nil), pts...)
	}
	if !p.lit("}}") || p.i != len(p.b) {
		return m, false
	}
	m.ID = string(line[start:end])
	return m, true
}

// wireParser is parseMatchLine's cursor over one line.
type wireParser struct {
	b []byte
	i int
}

// lit consumes s if the line continues with it.
func (p *wireParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// number consumes one number in JSON's grammar and parses it as
// json.Unmarshal does into a float64; a number out of float64's range fails.
func (p *wireParser) number() (float64, bool) {
	b, i := p.b, p.i
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return f, true
}
