package server

// Tests of the one reply format's bounds: a reply never holds more than one
// match line, never outlives its deadline when the client stops reading, and
// reads back whatever the length of a line; a request body that stalls is cut
// off, and the bound on reading it does not cut a long reply.

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
	"runtime"
	"strings"
	"testing"
	"time"

	trass "repro"
	"repro/internal/gen"
)

// wholeSquare asks for every stored trajectory with its points.
const wholeSquare = `{"kind":"range","rect":[0,0,1,1],"include_points":true}`

// writeRecorder is a ResponseWriter that keeps each Write as it came and
// whether a Flush followed it.
type writeRecorder struct {
	header  http.Header
	code    int
	writes  [][]byte
	flushed []bool
}

func (r *writeRecorder) Header() http.Header { return r.header }
func (r *writeRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *writeRecorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.writes = append(r.writes, bytes.Clone(b))
	r.flushed = append(r.flushed, false)
	return len(b), nil
}
func (r *writeRecorder) Flush() {
	if n := len(r.flushed); n > 0 {
		r.flushed[n-1] = true
	}
}

// TestStreamResidentBound: a whole-square range with points over a store
// with more matches than the engine's pipeline holds completes, its footer's
// stream_peak_depth stays within the pipeline's d + w + 1 (DESIGN §9), and
// the handler hands the writer one line at a time, each flushed before the
// next is built: no reply buffer holds more than one match.
func TestStreamResidentBound(t *testing.T) {
	// The engine's refine pool is GOMAXPROCS workers and its queue depth
	// max(16, 4w); the store must match more rows than that bound.
	w := runtime.GOMAXPROCS(0)
	bound := max(16, 4*w) + w + 1
	db := openDB(t, gen.TDrive(gen.TDriveOptions{Seed: 11, N: max(300, 2*bound)}))
	t.Cleanup(func() { _ = db.Close() })
	srv := New(db, Config{})

	rec := &writeRecorder{header: http.Header{}}
	srv.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(wholeSquare)))
	if rec.code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.code, bytes.Join(rec.writes, nil))
	}
	var scratch [][2]float64
	matches := 0
	for i, b := range rec.writes {
		if bytes.IndexByte(b, '\n') != len(b)-1 {
			t.Fatalf("write %d is not one line: %.200q", i, b)
		}
		if !rec.flushed[i] {
			t.Fatalf("write %d of %d was not flushed before the next", i, len(rec.writes))
		}
		if i < len(rec.writes)-1 {
			if _, ok := parseMatchLine(b[:len(b)-1], &scratch); !ok {
				t.Fatalf("write %d is not a match line: %.200q", i, b)
			}
			matches++
		}
	}
	var footer StreamLine
	if err := json.Unmarshal(rec.writes[len(rec.writes)-1], &footer); err != nil || !footer.Done || footer.Error != "" {
		t.Fatalf("last write is not a clean footer (%v): %s", err, rec.writes[len(rec.writes)-1])
	}
	if footer.Results != matches || int64(matches) != db.Count() {
		t.Fatalf("footer counts %d results, %d match lines, %d stored", footer.Results, matches, db.Count())
	}
	if footer.Stats.RefineWorkers != w {
		t.Fatalf("refine_workers %d, want GOMAXPROCS %d", footer.Stats.RefineWorkers, w)
	}
	if matches <= bound {
		t.Fatalf("%d matches do not exceed the pipeline bound %d", matches, bound)
	}
	if peak := footer.Stats.StreamPeakDepth; peak < 1 || peak > bound {
		t.Fatalf("stream_peak_depth %d, want within [1, %d]", peak, bound)
	}
}

// TestStreamStalledReaderReleasesSlot: a client that sends a query and then
// never reads its reply cannot hold the in-flight slot or the query's
// snapshot past the request's deadline. The reply (every stored trajectory
// with its points) is far larger than the socket buffers, so the handler's
// Write blocks; the connection's write deadline must unblock it.
func TestStreamStalledReaderReleasesSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 20,000 trajectories")
	}
	db := openDB(t, gen.TDrive(gen.TDriveOptions{Seed: 3, N: 20000}))
	const deadline = time.Second
	srv, client := startServer(t, db, Config{DefaultDeadline: deadline, MaxDeadline: deadline})
	before, err := db.StorageStats()
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", strings.TrimPrefix(client.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := time.Now()
	if _, err := fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: trassd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(wholeSquare), wholeSquare); err != nil {
		t.Fatal(err)
	}
	// The request holds its slot from admission until its reply ends, which
	// a reader that never reads puts off until the deadline at the earliest.
	for srv.InFlight() == 0 && time.Since(sent) < 10*time.Second {
		time.Sleep(time.Millisecond)
	}
	if srv.InFlight() == 0 {
		t.Fatalf("the request was never seen in flight")
	}
	admitted := time.Now()

	for {
		st, err := db.StorageStats()
		if err != nil {
			t.Fatal(err)
		}
		if srv.InFlight() == 0 && st.KV.PinnedSnapshots == before.KV.PinnedSnapshots {
			return
		}
		if time.Since(admitted) > deadline+2*time.Second {
			t.Fatalf("%v after a stalled reader's request was admitted: in-flight %d, pinned snapshots %d (%d before)",
				time.Since(admitted).Round(time.Millisecond), srv.InFlight(), st.KV.PinnedSnapshots, before.KV.PinnedSnapshots)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamDeadlineBeforeFirstLineIs504: a query whose deadline expires
// before its first line reaches the client as a 504 over a real socket. The
// connection's write deadline must not fall before the status is flushed.
func TestStreamDeadlineBeforeFirstLineIs504(t *testing.T) {
	db, _ := openLoadedDB(t)
	const deadline = 200 * time.Millisecond
	srv, client := startServer(t, db, Config{DefaultDeadline: deadline, MaxDeadline: deadline})
	srv.streamDelay = time.Minute // the first line waits out the deadline

	req := QueryRequest{Kind: KindRange, Rect: &[4]float64{0, 0, 1, 1}}
	_, err := client.QueryStream(context.Background(), req, func(WireMatch) error {
		t.Error("a match line arrived before the deadline expired")
		return nil
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusGatewayTimeout {
		t.Fatalf("got %v, want a *StatusError with code 504", err)
	}
}

// TestStreamDeadlineMidStreamReachesFooter: a query whose deadline expires
// after some lines have gone out ends with a footer that carries the expiry,
// over a real socket, rather than a cut connection.
func TestStreamDeadlineMidStreamReachesFooter(t *testing.T) {
	db, _ := openLoadedDB(t)
	const deadline = time.Second
	srv, client := startServer(t, db, Config{DefaultDeadline: deadline, MaxDeadline: deadline})
	srv.streamDelay = deadline / 4 // a few lines go out, then the deadline expires

	req := QueryRequest{Kind: KindRange, Rect: &[4]float64{0, 0, 1, 1}}
	n := 0
	_, err := client.QueryStream(context.Background(), req, func(WireMatch) error {
		n++
		return nil
	})
	// QueryStream reports a footer's error as "server: <error>".
	if err == nil || err.Error() != "server: "+context.DeadlineExceeded.Error() {
		t.Fatalf("got %v, want a footer carrying the expired deadline", err)
	}
	if n == 0 || int64(n) >= db.Count() {
		t.Fatalf("%d of %d matches arrived; the deadline should expire mid-stream", n, db.Count())
	}
}

// TestStreamStalledBodyIsCutOff: a client that sends its headers and less
// body than they announce, then stalls, cannot hold the connection, its
// goroutine or an in-flight slot past MaxDeadline. A partial JSON value fails
// the body's read (400). A complete one shorter than its Content-Length
// starts the query, and net/http's read of the rest of the body, before the
// reply's header goes out, fails instead; the query's deadline falls at about
// the same instant, so whether any of the reply gets out first is a race.
// Either way the server closes the connection.
func TestStreamStalledBodyIsCutOff(t *testing.T) {
	db, _ := openLoadedDB(t)
	const deadline = time.Second
	srv, client := startServer(t, db, Config{DefaultDeadline: deadline, MaxDeadline: deadline})
	for _, tc := range []struct{ name, body, status string }{
		{"partial", `{"kind":`, "400"}, // 8 of the 100 body bytes
		{"complete", `{"kind":"range","rect":[0,0,1,1]}`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", strings.TrimPrefix(client.BaseURL, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			sent := time.Now()
			if _, err := io.WriteString(conn, "POST /v1/query HTTP/1.1\r\nHost: trassd\r\nContent-Type: application/json\r\n"+
				"Content-Length: 100\r\n\r\n"+tc.body); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetReadDeadline(sent.Add(deadline + 2*time.Second)); err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("%v after the body stalled, the connection is still open (%v); read %q",
					time.Since(sent).Round(time.Millisecond), err, reply)
			}
			if tc.status != "" && !bytes.HasPrefix(reply, []byte("HTTP/1.1 "+tc.status+" ")) {
				t.Fatalf("a stalled body was answered %q, want a %s", reply, tc.status)
			}
			for srv.InFlight() != 0 {
				if time.Since(sent) > deadline+2*time.Second {
					t.Fatalf("%d requests still in flight after the connection closed", srv.InFlight())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestStreamOutlastsBodyReadDeadline: the bound on reading a request's body
// ends with the body. Half the body arrives MaxDeadline/2 after the headers,
// then the reply streams for longer than another MaxDeadline/2, past the
// instant the body read would have timed out, and still reaches its footer.
func TestStreamOutlastsBodyReadDeadline(t *testing.T) {
	db, _ := openLoadedDB(t)
	const deadline = 2 * time.Second
	srv, client := startServer(t, db, Config{DefaultDeadline: deadline, MaxDeadline: deadline})
	n := int(db.Count())
	srv.streamDelay = 6 * deadline / 10 / time.Duration(n) // the reply streams for at least 0.6 × deadline

	conn, err := net.Dial("tcp", strings.TrimPrefix(client.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"kind":"range","rect":[0,0,1,1]}`
	sent := time.Now()
	if _, err := fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: trassd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(deadline / 2)
	if _, err := io.WriteString(conn, body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(sent.Add(3 * deadline)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	matches := 0
	var footer StreamLine
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %q: %v", sc.Bytes(), err)
		}
		if line.Match != nil {
			matches++
		}
		if line.Done {
			footer = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("after %d matches: %v", matches, err)
	}
	if elapsed := time.Since(sent); elapsed <= deadline {
		t.Fatalf("the reply ended %v after the headers, before the body read's bound of %v", elapsed, deadline)
	}
	if !footer.Done || footer.Error != "" || matches != n {
		t.Fatalf("%d of %d matches, footer %+v: want every match and a footer without error", matches, n, footer)
	}
}

// TestStreamReadsLongLine: QueryStream reads a match line of any length. A
// stored 500,000-point trajectory makes one line longer than 16 MiB, and
// every point must come back bit for bit.
func TestStreamReadsLongLine(t *testing.T) {
	const n = 500000
	pts := make([]trass.Point, n)
	for i := range pts {
		// Stepping across the plane, jittered so each coordinate prints
		// with many digits.
		pts[i] = trass.Point{X: 0.1 + 0.8*float64(i)/n, Y: 0.5 + 0.01*math.Mod(float64(i)*math.Phi, 1)}
	}
	db := openDB(t, []*trass.Trajectory{{ID: "long", Points: pts}})
	_, client := startServer(t, db, Config{})
	want, err := db.Get("long")
	if err != nil {
		t.Fatal(err)
	}
	line, err := appendMatch([]byte(`{"match":`), trass.Match{ID: want.ID, Points: want.Points}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(line) <= 16<<20 {
		t.Fatalf("match line is %d bytes; the test needs one above 16 MiB", len(line))
	}

	var got []WireMatch
	req := QueryRequest{Kind: KindRange, Rect: &[4]float64{0, 0, 1, 1}, IncludePoints: true}
	if _, err := client.QueryStream(context.Background(), req, func(m WireMatch) error {
		got = append(got, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != want.ID || len(got[0].Points) != len(want.Points) {
		t.Fatalf("got %d matches, want the one %d-point trajectory", len(got), len(want.Points))
	}
	for i, p := range want.Points {
		g := got[0].Points[i]
		if math.Float64bits(g[0]) != math.Float64bits(p.X) || math.Float64bits(g[1]) != math.Float64bits(p.Y) {
			t.Fatalf("point %d: wire %v, stored %v", i, g, p)
		}
	}
}
