// Package server turns the embedded TraSS library into a served system:
// cmd/trassd speaks the HTTP/JSON protocol defined here, streaming query
// results over chunked NDJSON as the refine workers emit them, with
// per-request deadlines and client disconnects mapped onto the engine's
// context plumbing, a bounded in-flight request limit with 429 shedding,
// and graceful SIGTERM drain.
//
// Wire protocol: every POST /v1/query reply is chunked NDJSON. Each match
// is one line {"match":{...}}, written as refinement confirms it for
// threshold and range, and in (distance, id) order once the search ends for
// top-k and point-kNN. The last line is a footer {"done":true,...} carrying
// the result count, the QueryStats (stream backpressure included), and any
// error — the trailer a chunked response cannot put in headers. A query
// that fails before its first line gets a 4xx/5xx status and a JSON
// ErrorResponse instead. No reply holds more than one match line: the
// server's resident set is the engine's pipeline, not the answer.
//
// Match lines are the bulk of a reply and are not encoded through
// reflection: appendMatch writes each one and the client's parseMatchLine
// reads it back, declining any line of another shape to json.Unmarshal.
// Their bytes are encoding/json's, byte for byte; FuzzMatchLine and
// TestMatchBytesMatchEncodingJSON pin both against it.
// Their numbers are mostly stored coordinates, each exactly k/2^30 in the
// codec's resolution: appendDyadic and parseDyadic write and read those
// with integer arithmetic, and leave any value whose digits they cannot
// prove to strconv, the formatter and parser encoding/json uses.
// Requests, footers, stats and errors go through encoding/json.
//
// Two things are a 400: a body that is not one QueryRequest (an unknown
// field included), and a query the engine or the wire cannot run as
// written, whose error wraps trass.ErrInvalidQuery.
//
// GET /healthz reports liveness (503 while draining), GET /statsz the
// server's request counters plus the storage layer's health snapshot,
// including CompactDegraded.
package server

import (
	"encoding/json"
	"math"
	"math/bits"
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

	// Stream is accepted and ignored: every reply streams. It stays so that
	// bodies written when a collected reply existed still decode under
	// DisallowUnknownFields.
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
	if d, ok := appendDyadic(b, f); ok {
		return d, nil
	}
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
	if f, n, ok := parseDyadic(p.b[p.i:]); ok {
		p.i += n
		return f, true
	}
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

// Dyadic floats. The codec stores every coordinate as an integer k at
// resolution 2^-30 (traj.coordScale), so every stored point trassd serves is
// exactly k/2^30. appendDyadic and parseDyadic format and parse such values
// with integer arithmetic. A value they cannot prove they handle exactly as
// strconv does is declined and goes through strconv unchanged, so the bytes
// and the parsed bits stay encoding/json's (TestWireFloatMatchesStrconv,
// FuzzWireFloat).
//
// Both rest on one fact. Let f = k/2^30 with 0 < k < 2^30 not a power of
// two, and p = ⌊log2 f⌋ = bits.Len64(k) − 31, so −30 ≤ p ≤ −1. f's
// neighbours are f ± 2^(p−52), since f is not at a binade edge, and f's
// 53-bit mantissa is k shifted left, so it is even. Round-to-nearest-even
// therefore maps a real v to f exactly when |v − f| ≤ 2^(p−53): the interval
// is symmetric and its ends are included. A power of two has a gap half as
// wide below it, so it is declined.

// dyadicBits is the codec's coordinate resolution: values are k/2^dyadicBits.
const dyadicBits = 30

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// pow5[n] = 5^n for appendDyadic's n ≤ 22, and pow10[n] = 10^n for
// parseDyadic's n ≤ 19.
var (
	pow5 = func() (t [23]uint64) {
		t[0] = 1
		for n := 1; n < len(t); n++ {
			t[n] = t[n-1] * 5
		}
		return
	}()
	pow10 = func() (t [20]uint64) {
		t[0] = 1
		for n := 1; n < len(t); n++ {
			t[n] = t[n-1] * 10
		}
		return
	}()
)

// appendDyadic appends f as strconv's shortest 'f' format writes it, which
// is encoding/json's format for 1e-6 ≤ f < 1, when f = k/2^30 and the digits
// can be proved; otherwise it returns b and false.
//
// strconv writes the fewest digits that parse back to f and, among those,
// the ones nearest f. With n fractional digits the nearest candidate is
// D = round(f·10^n) = round(k·5^n / 2^(30−n)), and it parses back to f iff
// |D·2^(30−n) − k·5^n| ≤ 5^n·2^(p−23) (the interval above, scaled by
// 10^n·2^(30−n)); the left side is an integer, so the bound may be floored.
// If any n-digit decimal is in the interval, D is, because the interval is
// symmetric about f. Let z be the number of zeros after "0." (f lies in
// [10^−(z+1), 10^−z), and z ≤ 5 as f ≥ 1e-6). For n ≤ 15+z the interval, no
// wider than f·2^−52 < 10^−(15+z), holds at most one n-digit decimal, so if
// one with fewer digits round-trips it is D with trailing zeros; at n = 17+z
// the interval, wider than f·2^−53 > 10^−(17+z), always holds one. So trying
// n = 15, 16, … and trimming trailing zeros finds strconv's digits by
// n = 17+z ≤ 22. When f·10^n is exactly halfway between two n-digit
// decimals, both round-trip or neither does, and strconv takes the even one.
func appendDyadic(b []byte, f float64) ([]byte, bool) {
	if !(f >= 1e-6 && f < 1) {
		return b, false
	}
	x := f * (1 << dyadicBits) // exact: a power-of-two scale
	k := uint64(x)
	//lint:ignore floatcmp exactness is the test: x is an integer iff the round trip through uint64 is lossless
	if float64(k) != x || k&(k-1) == 0 {
		return b, false
	}
	p := bits.Len64(k) - (dyadicBits + 1)
	for n := 15; n < len(pow5); n++ {
		// k·5^n < 2^30·5^22 < 2^82, s = 30−n ≥ 8, and the loop ends by
		// n = 17+z, so D < 10^(n−z) ≤ 10^17 fits.
		s := uint(dyadicBits - n)
		hi, lo := bits.Mul64(k, pow5[n])
		d, r := hi<<(64-s)|lo>>s, lo&(1<<s-1)
		half := uint64(1) << (s - 1)
		if r > half {
			d, r = d+1, 1<<s-r
		}
		if r > pow5[n]>>(23-p) {
			continue
		}
		if r == half {
			d += d & 1
		}
		// D < 10^n and f < 1, so D is the n digits after "0." once padded.
		for d%10 == 0 {
			d /= 10
			n--
		}
		var digits [24]byte
		i := n
		for ; i >= 2; i -= 2 {
			q := d / 100
			r := (d - q*100) * 2
			digits[i-2], digits[i-1] = digitPairs[r], digitPairs[r+1]
			d = q
		}
		if i == 1 {
			digits[0] = byte('0' + d)
		}
		return append(append(b, "0."...), digits[:n]...), true
	}
	return b, false
}

// parseDyadic reads a JSON number at the start of b that is "0." and 1 to 19
// digits, when the float64 it denotes is k/2^30 and that can be proved. It
// returns the value, the bytes read, and whether it did; any other number is
// strconv.ParseFloat's.
//
// The token is v = m/10^n with m < 10^n ≤ 10^19 < 2^64. Dividing m·2^30 by
// 10^n and rounding gives k, the nearest integer to v·2^30, and rem =
// |m·2^30 − k·10^n|. k/2^30 is the float64 nearest v iff k is not 0 or a
// power of two and rem ≤ 10^n·2^(p−23): the interval above, scaled by
// 10^n·2^30, floored because rem is an integer. (No k' other than the
// nearest can pass: its distance from v·2^30 is at least 1/2.)
func parseDyadic(b []byte) (float64, int, bool) {
	if len(b) < 3 || b[0] != '0' || b[1] != '.' {
		return 0, 0, false
	}
	i, m := 2, uint64(0)
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	n := i - 2
	if n == 0 || n > 19 || i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		return 0, 0, false
	}
	// m < 10^n, so m·2^30 / 10^n < 2^30 and the divide cannot overflow.
	k, rem := bits.Div64(m>>(64-dyadicBits), m<<dyadicBits, pow10[n])
	if rem > pow10[n]-rem {
		k, rem = k+1, pow10[n]-rem
	}
	if k == 0 || k&(k-1) == 0 || rem > pow10[n]>>(23-(bits.Len64(k)-(dyadicBits+1))) {
		return 0, 0, false
	}
	return float64(k) / (1 << dyadicBits), i, true
}
