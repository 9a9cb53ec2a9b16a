package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	trass "repro"
)

// maxRequestBody bounds the decoded query body (inline query trajectories
// can be large, but not unbounded).
const maxRequestBody = 8 << 20

// maxK bounds k on the wire: a top-k or nearest search holds k decoded
// trajectories plus one frontier drain's candidates in memory, so an
// unbounded k is an unbounded allocation on a client's say-so. Embedded
// callers are not capped.
const maxK = 10000

// maxQueryPoints bounds an inline query trajectory on the wire: every
// candidate pays an O(n·m) DP against it, and the body limit alone admits
// some 400,000 points. Embedded callers are not capped.
const maxQueryPoints = 10000

// handleQuery is POST /v1/query: decode, admit (shed with 429 when the
// in-flight bound is hit), map the deadline onto a context derived from the
// request's (so client disconnects and drain cancellation both propagate),
// turn the request into one trass.Query and stream its reply.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// The body is read before the query's own deadline starts, so a client
	// that stalls it is cut off at MaxDeadline. The read deadline is not
	// cleared here: net/http clears it when the body is read to its end (its
	// background read, which watches for a client that hangs up, starts
	// then), and a body the decoder did not finish must stay bounded, since
	// net/http discards the rest of it before the reply's header goes out.
	// A writer without deadlines (a test recorder) returns
	// http.ErrNotSupported and has no socket to stall.
	_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.cfg.MaxDeadline))
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !s.acquire() {
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server at in-flight capacity (%d)", cap(s.inflight))
		return
	}
	defer s.release()
	s.served.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMS))
	defer cancel()
	if s.queryCtxHook != nil {
		s.queryCtxHook(ctx)
	}

	q, err := s.decode(&req)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	s.streamQuery(ctx, w, q, req.IncludePoints)
}

// deadline resolves the request's execution budget: the client's ask in
// milliseconds clamped to the server maximum, or the server default. The
// clamp compares milliseconds: converting first would wrap a huge ask to a
// zero or negative duration.
func (s *Server) deadline(ms int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = s.cfg.MaxDeadline
		if ms < s.cfg.MaxDeadline.Milliseconds() {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	return min(d, s.cfg.MaxDeadline)
}

// invalid reports a client mistake the wire itself catches. Like every
// mistake the engine catches, it wraps trass.ErrInvalidQuery.
func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: %s", trass.ErrInvalidQuery, fmt.Sprintf(format, args...))
}

// decode turns the request into the one trass.Query it asks for. It checks
// only what the wire adds to the engine's own validation: the kind's query
// trajectory, rect or point is present, k is within 1..maxK, an inline query
// is within maxQueryPoints, and knn carries no window (its Backend method
// cannot). Coordinates, eps and rect bounds are the engine's to reject.
func (s *Server) decode(req *QueryRequest) (trass.Query, error) {
	q := trass.Query{Eps: req.Eps, K: req.K, Window: trass.TimeWindow{Start: req.TimeStart, End: req.TimeEnd}}
	var err error
	switch req.Kind {
	case KindThreshold:
		q.Kind = trass.KindThreshold
		q.Traj, err = s.queryTrajectory(req)
	case KindTopK:
		q.Kind = trass.KindTopK
		if err = checkK(req.K); err == nil {
			q.Traj, err = s.queryTrajectory(req)
		}
	case KindRange:
		if req.Rect == nil {
			return q, invalid("range requires a rect [minX,minY,maxX,maxY]")
		}
		r := req.Rect
		q.Kind = trass.KindRange
		q.Rect = trass.Rect{Min: trass.Point{X: r[0], Y: r[1]}, Max: trass.Point{X: r[2], Y: r[3]}}
	case KindKNN:
		if req.Point == nil {
			return q, invalid("knn requires a point")
		}
		if !q.Window.Unbounded() {
			return q, invalid("knn has no time-window variant")
		}
		q.Kind = trass.KindNearest
		q.Point = trass.Point{X: req.Point[0], Y: req.Point[1]}
		err = checkK(req.K)
	default:
		return q, invalid("unknown query kind %q", req.Kind)
	}
	return q, err
}

// checkK validates the k of a top-k or nearest request.
func checkK(k int) error {
	if k <= 0 || k > maxK {
		return invalid("k %d is outside the server's range 1..%d", k, maxK)
	}
	return nil
}

// queryTrajectory resolves the query trajectory: a stored id or inline
// points, exactly one of the two. A backend failure reading the stored id is
// the server's, not the client's.
func (s *Server) queryTrajectory(req *QueryRequest) (*trass.Trajectory, error) {
	switch {
	case (req.QueryID == "") == (len(req.Points) == 0):
		return nil, invalid("exactly one of query_id or points is required")
	case len(req.Points) > maxQueryPoints:
		return nil, invalid("%d query points exceed the server's limit of %d", len(req.Points), maxQueryPoints)
	case len(req.Points) > 0:
		pts := make([]trass.Point, len(req.Points))
		for i, p := range req.Points {
			pts[i] = trass.Point{X: p[0], Y: p[1]}
		}
		return &trass.Trajectory{ID: "<query>", Points: pts}, nil
	}
	q, err := s.db.Get(req.QueryID)
	if errors.Is(err, trass.ErrNotFound) {
		return nil, invalid("query trajectory %q not stored", req.QueryID)
	}
	return q, err
}

// run executes q through the Backend method for its kind and passes every
// match to sink: threshold and range matches as refinement confirms them,
// top-k and nearest matches in (distance, id) order once the search has
// finished — DB.Search's sink contract.
func (s *Server) run(ctx context.Context, q trass.Query, sink func(trass.Match) error) (*trass.QueryStats, error) {
	var ms []trass.Match
	var st *trass.QueryStats
	var err error
	switch q.Kind {
	case trass.KindThreshold:
		return s.db.ThresholdSearchWindowFunc(ctx, q.Traj, q.Eps, q.Window, sink)
	case trass.KindRange:
		return s.db.RangeSearchWindowFunc(ctx, q.Rect, q.Window, sink)
	case trass.KindTopK:
		ms, st, err = s.db.TopKSearchWindowContext(ctx, q.Traj, q.K, q.Window)
	default:
		ms, st, err = s.db.NearestSearchContext(ctx, q.Point, q.K)
	}
	if err != nil {
		return st, err
	}
	for _, m := range ms {
		if err := sink(m); err != nil {
			return st, err
		}
	}
	return st, nil
}

// writeQueryError maps a query failure onto a status code: client mistakes
// (trass.ErrInvalidQuery, from the engine or the wire) are 400, deadline
// expiry 504, everything else 500.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, trass.ErrInvalidQuery):
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client is gone or the server is draining; the code is mostly
		// for the access log.
		writeError(w, http.StatusServiceUnavailable, "cancelled")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
