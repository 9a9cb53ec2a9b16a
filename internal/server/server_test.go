package server

// End-to-end tests of the serving layer over real sockets: wire-vs-embedded
// result equivalence (the served numbers must be byte-identical to the
// library's), the pinned request surface, admission control, mid-stream
// client disconnects cancelling query work, and graceful drain closing the
// store exactly once.
// All run under -race in CI.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	trass "repro"
	"repro/internal/gen"
)

// testData builds a small timed T-Drive workload: even-index trajectories
// live in the [1000, 2000] time band, odd-index ones in [5000, 6000], so a
// window ending at 2500 selects exactly the even half.
func testData(t testing.TB) []*trass.Trajectory {
	t.Helper()
	data := gen.TDrive(gen.TDriveOptions{Seed: 3, N: 300})
	for i, tr := range data {
		base := int64(1000)
		if i%2 == 1 {
			base = 5000
		}
		times := make([]int64, len(tr.Points))
		for j := range times {
			times[j] = base + int64(j)
		}
		tr.Times = times
	}
	return data
}

func openLoadedDB(t testing.TB) (*trass.DB, []*trass.Trajectory) {
	t.Helper()
	data := testData(t)
	return openDB(t, data), data
}

// openDB stores data in a fresh DB, flushed.
func openDB(t testing.TB, data []*trass.Trajectory) *trass.DB {
	t.Helper()
	db, err := trass.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutBatch(data); err != nil {
		_ = db.Close()
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		_ = db.Close()
		t.Fatal(err)
	}
	return db
}

// startServer serves db on a loopback listener; the cleanup drains and
// closes db through the server (the server owns it from here).
func startServer(t *testing.T, db Backend, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(db, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, NewClient("http://" + lis.Addr().String())
}

// formatMatches renders results exactly as cmd/trass prints them; two runs
// are equivalent iff these strings are byte-identical.
func formatMatches(ms []trass.Match) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s\t%.9f\n", m.ID, m.Distance)
	}
	return b.String()
}

func formatWire(ms []WireMatch) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s\t%.9f\n", m.ID, m.Distance)
	}
	return b.String()
}

func sortWire(ms []WireMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		return ms[i].ID < ms[j].ID
	})
}

func sortMatches(ms []trass.Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		return ms[i].ID < ms[j].ID
	})
}

// checkPoints requires each wire match to carry, bit for bit, the points of
// the embedded match with its id when includePoints is set, and none
// otherwise.
func checkPoints(t *testing.T, path string, got []WireMatch, want []trass.Match, includePoints bool) {
	t.Helper()
	byID := make(map[string]trass.Match, len(want))
	for _, m := range want {
		byID[m.ID] = m
	}
	for _, m := range got {
		var pts []trass.Point
		if includePoints {
			pts = byID[m.ID].Points
			if len(pts) == 0 {
				t.Fatalf("%s: embedded match %s has no points to compare", path, m.ID)
			}
		}
		if len(m.Points) != len(pts) {
			t.Fatalf("%s match %s: %d points on the wire, %d embedded", path, m.ID, len(m.Points), len(pts))
		}
		for i, p := range pts {
			if math.Float64bits(m.Points[i][0]) != math.Float64bits(p.X) || math.Float64bits(m.Points[i][1]) != math.Float64bits(p.Y) {
				t.Fatalf("%s match %s point %d: wire %v, embedded %v", path, m.ID, i, m.Points[i], p)
			}
		}
	}
}

// TestWireEquivalence is the tentpole guarantee: every query path served
// over the wire returns byte-identical results to the same query run
// embedded — the same set, top-k and knn in the same order too, every point
// bit for bit where the request includes them — and footers whose
// rows_walked is the embedded RowsWalked where that is fixed.
func TestWireEquivalence(t *testing.T) {
	db, data := openLoadedDB(t)
	_, client := startServer(t, db, Config{})
	ctx := context.Background()

	// The server resolves query_id to the *stored* trajectory (simplified at
	// ingest), so the embedded side of each comparison must query the stored
	// representation too.
	q, err := db.Get(data[42].ID)
	if err != nil {
		t.Fatal(err)
	}
	eps := gen.DegreesToNorm(0.2)
	window := trass.TimeWindow{End: 2500}
	rect := q.MBR()
	pad := gen.DegreesToNorm(0.05)
	wireRect := &[4]float64{rect.Min.X - pad, rect.Min.Y - pad, rect.Max.X + pad, rect.Max.Y + pad}
	queryPts := make([][2]float64, len(q.Points))
	for i, p := range q.Points {
		queryPts[i] = [2]float64{p.X, p.Y}
	}

	cases := []struct {
		name     string
		req      QueryRequest
		embedded func() ([]trass.Match, *trass.QueryStats, error)
	}{
		{
			name: "threshold",
			req:  QueryRequest{Kind: KindThreshold, QueryID: q.ID, Eps: eps},
			embedded: func() ([]trass.Match, *trass.QueryStats, error) {
				return db.ThresholdSearchWindowContext(ctx, q, eps, trass.TimeWindow{})
			},
		},
		{
			name: "threshold-window",
			req:  QueryRequest{Kind: KindThreshold, Points: queryPts, Eps: eps, TimeEnd: 2500},
			embedded: func() ([]trass.Match, *trass.QueryStats, error) {
				return db.ThresholdSearchWindowContext(ctx, q, eps, window)
			},
		},
		{
			name: "topk",
			req:  QueryRequest{Kind: KindTopK, QueryID: q.ID, K: 10, IncludePoints: true},
			embedded: func() ([]trass.Match, *trass.QueryStats, error) {
				return db.TopKSearchWindowContext(ctx, q, 10, trass.TimeWindow{})
			},
		},
		{
			name: "topk-window",
			req:  QueryRequest{Kind: KindTopK, QueryID: q.ID, K: 10, TimeEnd: 2500},
			embedded: func() ([]trass.Match, *trass.QueryStats, error) {
				return db.TopKSearchWindowContext(ctx, q, 10, window)
			},
		},
		{
			name: "range",
			req:  QueryRequest{Kind: KindRange, Rect: wireRect, IncludePoints: true},
			embedded: func() ([]trass.Match, *trass.QueryStats, error) {
				return db.RangeSearchWindowContext(ctx, trass.Rect{
					Min: trass.Point{X: wireRect[0], Y: wireRect[1]},
					Max: trass.Point{X: wireRect[2], Y: wireRect[3]},
				}, trass.TimeWindow{})
			},
		},
		{
			name: "range-window",
			req:  QueryRequest{Kind: KindRange, Rect: wireRect, TimeEnd: 2500},
			embedded: func() ([]trass.Match, *trass.QueryStats, error) {
				return db.RangeSearchWindowContext(ctx, trass.Rect{
					Min: trass.Point{X: wireRect[0], Y: wireRect[1]},
					Max: trass.Point{X: wireRect[2], Y: wireRect[3]},
				}, window)
			},
		},
		{
			name: "knn",
			req:  QueryRequest{Kind: KindKNN, Point: &[2]float64{q.Points[0].X, q.Points[0].Y}, K: 5},
			embedded: func() ([]trass.Match, *trass.QueryStats, error) {
				return db.NearestSearchContext(ctx, q.Points[0], 5)
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantStats, err := tc.embedded()
			if err != nil {
				t.Fatalf("embedded: %v", err)
			}
			if tc.name == "threshold" && len(want) == 0 {
				t.Fatal("threshold found nothing; workload too sparse to test equivalence")
			}
			// Threshold and range stream through the refine pipeline: their
			// filter's walk count is deterministic and their line order is
			// not. Top-k and knn are the reverse: the walk depends on how fast
			// the refine workers tighten the bound, and their lines follow
			// the search in (distance, id) order.
			pipelined := tc.req.Kind == KindThreshold || tc.req.Kind == KindRange

			var streamed []WireMatch
			stats, err := client.QueryStream(ctx, tc.req, func(m WireMatch) error {
				streamed = append(streamed, m)
				return nil
			})
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			if stats == nil {
				t.Fatal("stream footer missing stats")
			}
			if pipelined && stats.RowsWalked != wantStats.RowsWalked {
				t.Fatalf("streamed rows_walked %d, embedded RowsWalked %d", stats.RowsWalked, wantStats.RowsWalked)
			}
			checkPoints(t, "streamed", streamed, want, tc.req.IncludePoints)
			if !pipelined {
				if got, wantText := formatWire(streamed), formatMatches(want); got != wantText {
					t.Fatalf("streamed %s out of (distance, id) order\nwire:\n%s\nembedded:\n%s", tc.req.Kind, got, wantText)
				}
			}
			wantSorted := append([]trass.Match(nil), want...)
			sortMatches(wantSorted)
			sortWire(streamed)
			if got, want := formatWire(streamed), formatMatches(wantSorted); got != want {
				t.Fatalf("streamed wire results differ from embedded\nwire:\n%s\nembedded:\n%s", got, want)
			}
		})
	}
}

func TestIncludePoints(t *testing.T) {
	db, data := openLoadedDB(t)
	_, client := startServer(t, db, Config{})
	q := data[7]
	n := 0
	if _, err := client.QueryStream(context.Background(), QueryRequest{
		Kind: KindTopK, QueryID: q.ID, K: 3, IncludePoints: true,
	}, func(m WireMatch) error {
		n++
		if len(m.Points) == 0 {
			t.Errorf("match %s missing points despite include_points", m.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no matches")
	}
}

// TestStreamKeptMatchesOwnTheirPoints: QueryStream's fn may keep what it is
// given. Every match of a multi-match range stream with points, kept until
// the footer has been read, must still carry its embedded match's points,
// so no line buffer or point scratch is shared between lines.
func TestStreamKeptMatchesOwnTheirPoints(t *testing.T) {
	db, data := openLoadedDB(t)
	_, client := startServer(t, db, Config{})
	ctx := context.Background()

	rect := data[42].MBR()
	pad := gen.DegreesToNorm(0.1)
	wireRect := &[4]float64{rect.Min.X - pad, rect.Min.Y - pad, rect.Max.X + pad, rect.Max.Y + pad}
	want, _, err := db.RangeSearchWindowContext(ctx, trass.Rect{
		Min: trass.Point{X: wireRect[0], Y: wireRect[1]},
		Max: trass.Point{X: wireRect[2], Y: wireRect[3]},
	}, trass.TimeWindow{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 {
		t.Fatalf("range found %d matches; the test needs several lines", len(want))
	}

	var kept []WireMatch
	if _, err := client.QueryStream(ctx, QueryRequest{Kind: KindRange, Rect: wireRect, IncludePoints: true}, func(m WireMatch) error {
		kept = append(kept, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(want) {
		t.Fatalf("streamed %d matches, embedded %d", len(kept), len(want))
	}
	checkPoints(t, "kept", kept, want, true)
}

func TestBadRequests(t *testing.T) {
	db, data := openLoadedDB(t)
	_, client := startServer(t, db, Config{})
	ctx := context.Background()

	tooLong := make([][2]float64, maxQueryPoints+1)
	for i := range tooLong {
		tooLong[i] = [2]float64{0.5, 0.5}
	}
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"unknown kind", QueryRequest{Kind: "frobnicate"}},
		{"threshold without query", QueryRequest{Kind: KindThreshold, Eps: 0.01}},
		{"topk without k", QueryRequest{Kind: KindTopK, QueryID: data[0].ID}},
		{"range without rect", QueryRequest{Kind: KindRange}},
		{"range inverted rect", QueryRequest{Kind: KindRange, Rect: &[4]float64{1, 1, 0, 0}}},
		{"knn without point", QueryRequest{Kind: KindKNN, K: 3}},
		{"topk with k above the cap", QueryRequest{Kind: KindTopK, QueryID: data[0].ID, K: maxK + 1}},
		{"knn with k above the cap", QueryRequest{Kind: KindKNN, Point: &[2]float64{0.5, 0.5}, K: maxK + 1}},
		{"knn with window", QueryRequest{Kind: KindKNN, Point: &[2]float64{0.5, 0.5}, K: 3, TimeEnd: 10}},
		{"range inverted window", QueryRequest{Kind: KindRange, Rect: &[4]float64{0, 0, 1, 1}, TimeStart: 800, TimeEnd: 200}},
		{"unknown query id", QueryRequest{Kind: KindThreshold, QueryID: "no-such-id", Eps: 0.01}},
		{"negative eps", QueryRequest{Kind: KindThreshold, QueryID: data[0].ID, Eps: -1}},
		{"inline point out of plane", QueryRequest{Kind: KindThreshold, Points: [][2]float64{{0.5, 0.5}, {1.5, 0.5}}, Eps: 0.01}},
		{"inline query above the length cap", QueryRequest{Kind: KindThreshold, Points: tooLong, Eps: 0.0001}},
		{"range rect out of plane", QueryRequest{Kind: KindRange, Rect: &[4]float64{0.2, 0.2, 0.4, 1.5}}},
		{"knn point out of plane", QueryRequest{Kind: KindKNN, Point: &[2]float64{-0.5, 0.5}, K: 3}},
	}
	// A request that fails validation gets its status before the first
	// line, not a 200 with the error in the NDJSON footer. Every case also
	// runs as its twin carrying the ignored "stream":true, which bodies
	// written for the former collected/streamed choice still send: the
	// field changes nothing, the status included.
	for _, tc := range cases {
		twin := tc
		twin.name += " (streamed)"
		twin.req.Stream = true
		cases = append(cases, twin)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := queryErr(ctx, client, tc.req); statusOf(err) != http.StatusBadRequest {
				t.Fatalf("got %v, want 400", err)
			}
		})
	}
}

// FuzzQueryRequest posts arbitrary bodies to handleQuery over one small
// store. Whatever the body, the status is 200, 400, 429, 503 or 504, never a
// 500 or a panic; a 400 is a body that does not decode or an error wrapping
// trass.ErrInvalidQuery; a 200 reads line by line, through parseMatchLine
// or json.Unmarshal, to a footer. Seed bodies with and without the ignored
// "stream" field read the same way.
func FuzzQueryRequest(f *testing.F) {
	db, data := openLoadedDB(f)
	f.Cleanup(func() { _ = db.Close() })
	srv := New(db, Config{DefaultDeadline: time.Second, MaxDeadline: time.Second})
	id := data[0].ID
	for _, body := range []string{
		`{"kind":"threshold","query_id":"` + id + `","eps":0.01}`,
		`{"kind":"threshold","points":[[0.5,0.5],[0.51,0.5]],"eps":0.05,"stream":true,"include_points":true}`,
		`{"kind":"topk","query_id":"` + id + `","k":5,"time_end":2500,"stream":true}`,
		`{"kind":"range","rect":[0.4,0.4,0.6,0.6],"include_points":true,"stream":true}`,
		`{"kind":"range","rect":[0.6,0.4,0.4,0.6]}`,
		`{"kind":"knn","point":[0.5,0.5],"k":3,"deadline_ms":1}`,
		`{"kind":"knn","point":[0.5,0.5],"k":3,"time_start":9} trailing`,
		`{"kind":"topk","query_id":"nope","k":0,"page":2}`,
		`[1,2]`,
	} {
		f.Add([]byte(body))
	}
	invalidText := trass.ErrInvalidQuery.Error()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		srv.handleQuery(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		var req QueryRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		decoded := dec.Decode(&req) == nil
		switch w.Code {
		case http.StatusOK:
			if !decoded {
				t.Fatalf("%q: 200 for a body that does not decode", body)
			}
		case http.StatusBadRequest:
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
				t.Fatalf("%q: 400 body %q: %v", body, w.Body, err)
			}
			if decoded && !strings.Contains(er.Error, invalidText) {
				t.Fatalf("%q: 400 %q does not wrap trass.ErrInvalidQuery", body, er.Error)
			}
			return
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("%q: status %d: %s", body, w.Code, w.Body)
		}
		lines := bytes.SplitAfter(w.Body.Bytes(), []byte("\n"))
		if last := lines[len(lines)-1]; len(last) != 0 {
			t.Fatalf("%q: stream ends without a newline: %q", body, last)
		}
		lines = lines[:len(lines)-1]
		var scratch [][2]float64
		for i, line := range lines {
			line = bytes.TrimSuffix(line, []byte("\n"))
			if _, ok := parseMatchLine(line, &scratch); ok {
				if i == len(lines)-1 {
					t.Fatalf("%q: stream ends on a match line", body)
				}
				continue
			}
			var sl StreamLine
			if err := json.Unmarshal(line, &sl); err != nil {
				t.Fatalf("%q: line %d %q: %v", body, i, line, err)
			}
			if footer := i == len(lines)-1; sl.Done != footer || !footer && sl.Match == nil {
				t.Fatalf("%q: line %d of %d is %q", body, i, len(lines), line)
			}
		}
		if len(lines) == 0 {
			t.Fatalf("%q: 200 with no footer", body)
		}
	})
}

// TestWireSurfacePinned lists the request's JSON names. A name the request
// does not have — pagination's among them — is a 400 naming it, before any
// query runs. "stream" is accepted and ignored: a body that asks for the
// collected reply trassd once had gets the streamed one.
func TestWireSurfacePinned(t *testing.T) {
	var names []string
	typ := reflect.TypeOf(QueryRequest{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		names = append(names, name)
	}
	want := []string{"kind", "query_id", "points", "eps", "k", "rect", "point",
		"time_start", "time_end", "include_points", "stream", "deadline_ms"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("QueryRequest JSON names:\n got %v\nwant %v", names, want)
	}

	db, data := openLoadedDB(t)
	_, client := startServer(t, db, Config{})
	// Each field is also sent with the ignored "stream":true beside it: the
	// unknown name is still the 400.
	for _, field := range []string{"page_size", "page_token"} {
		for _, stream := range []bool{false, true} {
			name := field
			body := map[string]any{"kind": KindTopK, "query_id": data[0].ID, "k": 3, field: 2}
			if stream {
				name += " (streamed)"
				body["stream"] = true
			}
			t.Run(name, func(t *testing.T) {
				resp, err := client.post(context.Background(), "/v1/query", body)
				if err == nil {
					_ = resp.Close()
				}
				var se *StatusError
				if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Message, field) {
					t.Fatalf("got %v, want a 400 naming %q", err, field)
				}
			})
		}
	}
	t.Run("stream=false", func(t *testing.T) {
		body, err := client.post(context.Background(), "/v1/query",
			map[string]any{"kind": KindTopK, "query_id": data[0].ID, "k": 3, "stream": false})
		if err != nil {
			t.Fatal(err)
		}
		defer body.Close()
		reply, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(reply), "\n"), "\n")
		var footer StreamLine
		if len(lines) != 4 || json.Unmarshal([]byte(lines[3]), &footer) != nil || !footer.Done || footer.Results != 3 {
			t.Fatalf("reply is not three match lines and a footer:\n%s", reply)
		}
	})
}

// TestHugeDeadlineIsClamped: a deadline_ms beyond what a time.Duration holds
// in milliseconds is clamped to the server maximum, not wrapped to an
// already-expired context.
func TestHugeDeadlineIsClamped(t *testing.T) {
	db, data := openLoadedDB(t)
	_, client := startServer(t, db, Config{})
	ctx := context.Background()
	req := QueryRequest{Kind: KindTopK, QueryID: data[42].ID, K: 5}
	query := func() string {
		t.Helper()
		var ms []WireMatch
		if _, err := client.QueryStream(ctx, req, func(m WireMatch) error {
			ms = append(ms, m)
			return nil
		}); err != nil {
			t.Fatalf("deadline_ms %d: %v", req.DeadlineMS, err)
		}
		return formatWire(ms)
	}
	want := query()
	if want == "" {
		t.Fatal("no matches")
	}
	for _, ms := range []int64{math.MaxInt64, 1 << 62} {
		req.DeadlineMS = ms
		if got := query(); got != want {
			t.Fatalf("deadline_ms %d:\n%swant\n%s", ms, got, want)
		}
	}
}

// queryErr issues req and returns the error; statusOf extracts the HTTP
// status (0 when err is not a StatusError).
func queryErr(ctx context.Context, client *Client, req QueryRequest) error {
	_, err := client.QueryStream(ctx, req, func(WireMatch) error { return nil })
	return err
}

func statusOf(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

// failingGetBackend's Get fails with a storage error, not ErrNotFound.
type failingGetBackend struct{ Backend }

func (failingGetBackend) Get(string) (*trass.Trajectory, error) {
	return nil, errors.New("disk on fire")
}

// TestQueryIDStorageFailureIs500: a backend failure while resolving query_id
// is the server's fault, not a 400.
func TestQueryIDStorageFailureIs500(t *testing.T) {
	db, _ := openLoadedDB(t)
	_, client := startServer(t, failingGetBackend{db}, Config{})
	req := QueryRequest{Kind: KindThreshold, QueryID: "any", Eps: 0.01}
	if err := queryErr(context.Background(), client, req); statusOf(err) != http.StatusInternalServerError {
		t.Errorf("got %v, want 500", err)
	}
}

// failAfterFirstBackend's streamed threshold search delivers one match and
// then fails.
type failAfterFirstBackend struct{ Backend }

func (b failAfterFirstBackend) ThresholdSearchWindowFunc(ctx context.Context, q *trass.Trajectory, eps float64, tw trass.TimeWindow, fn func(trass.Match) error) (*trass.QueryStats, error) {
	first := true
	_, err := b.Backend.ThresholdSearchWindowFunc(ctx, q, eps, tw, func(m trass.Match) error {
		if !first {
			return errors.New("disk on fire")
		}
		first = false
		return fn(m)
	})
	return nil, err
}

// TestStreamErrorAfterFirstMatchStaysInBand: once a match line is on the
// wire the status is spent, so a later failure still arrives in the footer.
func TestStreamErrorAfterFirstMatchStaysInBand(t *testing.T) {
	db, data := openLoadedDB(t)
	_, client := startServer(t, failAfterFirstBackend{db}, Config{})
	n := 0
	req := QueryRequest{Kind: KindThreshold, QueryID: data[42].ID, Eps: gen.DegreesToNorm(1.0)}
	_, err := client.QueryStream(context.Background(), req, func(WireMatch) error { n++; return nil })
	if n != 1 || err == nil || statusOf(err) != 0 || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("got %d matches and %v, want 1 match then the in-band footer error", n, err)
	}
}

// TestStreamDisconnectCancelsQuery is the regression test for the ctx
// plumbing satellite: killing the connection mid-NDJSON-stream must cancel
// the query's context, stopping the refine workers, and leak no goroutines.
func TestStreamDisconnectCancelsQuery(t *testing.T) {
	db, data := openLoadedDB(t)
	srv, client := startServer(t, db, Config{})
	srv.streamDelay = 20 * time.Millisecond // hold the stream open per line

	queryCtx := make(chan context.Context, 1)
	srv.queryCtxHook = func(ctx context.Context) {
		select {
		case queryCtx <- ctx:
		default:
		}
	}

	// Warm up the transport, then snapshot the goroutine count the server is
	// entitled to keep.
	httpClient := &http.Client{}
	client.HTTP = httpClient
	if err := client.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-time.After(50 * time.Millisecond)
	base := runtime.NumGoroutine()

	// Open a streaming threshold query wide enough to emit many lines, read
	// the first line, then kill the connection.
	ctx, cancel := context.WithCancel(context.Background())
	req := QueryRequest{Kind: KindThreshold, QueryID: data[42].ID, Eps: gen.DegreesToNorm(1.0)}
	body, err := client.post(ctx, "/v1/query", req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	br := bufio.NewReader(body)
	if _, err := br.ReadString('\n'); err != nil {
		cancel()
		t.Fatalf("reading first stream line: %v", err)
	}
	cancel() // tears down the connection mid-stream
	_ = body.Close()

	var qctx context.Context
	select {
	case qctx = <-queryCtx:
	case <-time.After(5 * time.Second):
		t.Fatal("query never started")
	}
	select {
	case <-qctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("query context not cancelled after client disconnect")
	}

	// The in-flight slot must come back and every query goroutine (refine
	// workers, scan pipeline, net/http conn) must exit.
	deadline := time.Now().Add(10 * time.Second)
	for srv.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight count stuck at %d after disconnect", srv.InFlight())
		}
		<-time.After(10 * time.Millisecond)
	}
	httpClient.CloseIdleConnections()
	for {
		if n := runtime.NumGoroutine(); n <= base {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after mid-stream disconnect: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		<-time.After(20 * time.Millisecond)
	}
}

// countingBackend counts Close calls; drain must close the store exactly
// once no matter how many times Shutdown runs.
type countingBackend struct {
	Backend
	closes atomic.Int32
}

func (c *countingBackend) Close() error {
	c.closes.Add(1)
	return c.Backend.Close()
}

// TestDrainGraceful is the drain satellite: an in-flight streaming query
// completes during SIGTERM drain, new connections are refused, and DB.Close
// runs exactly once.
func TestDrainGraceful(t *testing.T) {
	db, data := openLoadedDB(t)
	backend := &countingBackend{Backend: db}

	srv := New(backend, Config{})
	srv.streamDelay = 10 * time.Millisecond
	started := make(chan struct{}, 1)
	srv.queryCtxHook = func(context.Context) {
		select {
		case started <- struct{}{}:
		default:
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	client := NewClient("http://" + lis.Addr().String())

	// Launch the long stream, wait until it is admitted, then drain.
	streamDone := make(chan error, 1)
	var results int64
	go func() {
		_, err := client.QueryStream(context.Background(),
			QueryRequest{Kind: KindThreshold, QueryID: data[42].ID, Eps: gen.DegreesToNorm(0.2)},
			func(WireMatch) error { atomic.AddInt64(&results, 1); return nil })
		streamDone <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("streaming query never started")
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- srv.Shutdown(ctx)
	}()

	// New connections are refused once the listener is down (dial error) or
	// answered with 503 if they sneak in before Draining flips.
	refusedDeadline := time.Now().Add(5 * time.Second)
	for {
		err := queryErr(context.Background(), client, QueryRequest{Kind: KindTopK, QueryID: data[0].ID, K: 1})
		if err != nil {
			break
		}
		if time.Now().After(refusedDeadline) {
			t.Fatal("server still accepting new queries during drain")
		}
	}

	// The in-flight stream finishes cleanly within the grace.
	select {
	case err := <-streamDone:
		if err != nil {
			t.Fatalf("in-flight stream failed during graceful drain: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("in-flight stream did not finish during drain")
	}
	if atomic.LoadInt64(&results) == 0 {
		t.Fatal("drained stream delivered no results")
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if got := backend.closes.Load(); got != 1 {
		t.Fatalf("DB.Close ran %d times, want exactly 1", got)
	}

	// A second Shutdown is a no-op on the store.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if got := backend.closes.Load(); got != 1 {
		t.Fatalf("DB.Close ran %d times after double Shutdown, want exactly 1", got)
	}
}

// TestDrainDeadlineCancelsInFlight: when the drain grace expires, in-flight
// streams are cancelled through the shared base context rather than left
// running, and the store still closes exactly once.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	db, data := openLoadedDB(t)
	backend := &countingBackend{Backend: db}

	srv := New(backend, Config{})
	srv.streamDelay = 200 * time.Millisecond // far slower than the grace below
	started := make(chan struct{}, 1)
	srv.queryCtxHook = func(context.Context) {
		select {
		case started <- struct{}{}:
		default:
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	client := NewClient("http://" + lis.Addr().String())

	streamDone := make(chan error, 1)
	go func() {
		_, err := client.QueryStream(context.Background(),
			QueryRequest{Kind: KindThreshold, QueryID: data[42].ID, Eps: gen.DegreesToNorm(1.0)},
			func(WireMatch) error { return nil })
		streamDone <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("streaming query never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown reported clean drain despite expired grace")
	}

	select {
	case serr := <-streamDone:
		if serr == nil {
			t.Fatal("cancelled stream reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight stream survived drain cancellation")
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if got := backend.closes.Load(); got != 1 {
		t.Fatalf("DB.Close ran %d times, want exactly 1", got)
	}
}

// TestShed429: the in-flight bound sheds excess load with 429 + Retry-After
// instead of queueing, and /statsz counts it.
func TestShed429(t *testing.T) {
	db, data := openLoadedDB(t)
	srv, client := startServer(t, db, Config{MaxInFlight: 1})
	srv.streamDelay = 30 * time.Millisecond
	admitted := make(chan struct{}, 1)
	srv.queryCtxHook = func(context.Context) {
		select {
		case admitted <- struct{}{}:
		default:
		}
	}

	holdDone := make(chan error, 1)
	go func() {
		_, err := client.QueryStream(context.Background(),
			QueryRequest{Kind: KindThreshold, QueryID: data[42].ID, Eps: gen.DegreesToNorm(0.2)},
			func(WireMatch) error { return nil })
		holdDone <- err
	}()
	select {
	case <-admitted:
	case <-time.After(10 * time.Second):
		t.Fatal("holding query never admitted")
	}

	err := queryErr(context.Background(), client, QueryRequest{Kind: KindTopK, QueryID: data[0].ID, K: 1})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("second query at capacity: got %v, want 429", err)
	}

	st, err := client.Statsz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed < 1 {
		t.Fatalf("statsz shed = %d, want >= 1", st.Shed)
	}
	if st.Trajectories != int64(len(data)) {
		t.Fatalf("statsz trajectories = %d, want %d", st.Trajectories, len(data))
	}
	if err := <-holdDone; err != nil {
		t.Fatalf("holding stream failed: %v", err)
	}
	if err := client.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
}
