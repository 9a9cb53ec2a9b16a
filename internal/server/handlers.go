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

// checkK validates the k of a top-k or nearest request.
func checkK(kind string, k int) error {
	if k <= 0 {
		return badRequest(fmt.Errorf("%s requires k > 0", kind))
	}
	if k > maxK {
		return fmt.Errorf("%w: k %d exceeds the server's limit of %d", trass.ErrInvalidQuery, k, maxK)
	}
	return nil
}

// handleQuery is POST /v1/query: decode, admit (shed with 429 when the
// in-flight bound is hit), map the deadline onto a context derived from the
// request's (so client disconnects and drain cancellation both propagate),
// and dispatch to the query path.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.PageSize < 0 {
		writeError(w, http.StatusBadRequest, "page_size must be >= 0, got %d", req.PageSize)
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

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(&req))
	defer cancel()
	if s.queryCtxHook != nil {
		s.queryCtxHook(ctx)
	}

	if req.Stream {
		if req.PageSize > 0 || req.PageToken != "" {
			writeError(w, http.StatusBadRequest, "stream and pagination are mutually exclusive")
			return
		}
		s.streamQuery(ctx, w, &req)
		return
	}
	s.collectQuery(ctx, w, &req)
}

// deadline resolves the request's execution budget: the client's ask clamped
// to the server maximum, or the server default.
func (s *Server) deadline(req *QueryRequest) time.Duration {
	d := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// timeWindow assembles the optional time restriction.
func (req *QueryRequest) timeWindow() trass.TimeWindow {
	return trass.TimeWindow{Start: req.TimeStart, End: req.TimeEnd}
}

// queryTrajectory resolves the query trajectory: a stored id or inline
// points, exactly one of the two. The client's mistakes come back marked
// badRequest; a backend failure reading the stored id does not.
func (s *Server) queryTrajectory(req *QueryRequest) (*trass.Trajectory, error) {
	switch {
	case req.QueryID != "" && len(req.Points) > 0:
		return nil, badRequest(fmt.Errorf("query_id and points are mutually exclusive"))
	case req.QueryID != "":
		q, err := s.db.Get(req.QueryID)
		if errors.Is(err, trass.ErrNotFound) {
			return nil, badRequest(fmt.Errorf("query trajectory %q not stored", req.QueryID))
		}
		return q, err
	case len(req.Points) > maxQueryPoints:
		return nil, fmt.Errorf("%w: %d query points exceed the server's limit of %d", trass.ErrInvalidQuery, len(req.Points), maxQueryPoints)
	case len(req.Points) > 0:
		q, err := toTrajectory("<query>", req.Points)
		if err != nil {
			return nil, badRequest(err)
		}
		return q, nil
	default:
		return nil, badRequest(fmt.Errorf("one of query_id or points is required"))
	}
}

// collectQuery runs the non-streaming path: execute fully through the
// deterministic *SearchContext variants (row-key order for threshold/range,
// ascending (distance, id) for top-k/knn), then slice out the requested page.
func (s *Server) collectQuery(ctx context.Context, w http.ResponseWriter, req *QueryRequest) {
	// The token is checked first: a malformed one must not cost a search.
	offset, err := decodePageToken(req.PageToken)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	matches, stats, err := s.runCollect(ctx, req)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp := QueryResponse{Stats: statsToWire(stats)}
	if offset > len(matches) {
		offset = len(matches)
	}
	end := len(matches)
	// Compared against the remainder, not as offset+PageSize: the sum wraps
	// negative for a page_size near MaxInt.
	if req.PageSize > 0 && req.PageSize < end-offset {
		end = offset + req.PageSize
		resp.NextPageToken = encodePageToken(end)
	}
	resp.Matches = make([]WireMatch, 0, end-offset)
	for _, m := range matches[offset:end] {
		resp.Matches = append(resp.Matches, matchToWire(m, req.IncludePoints))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// runCollect dispatches one fully-collected query.
func (s *Server) runCollect(ctx context.Context, req *QueryRequest) ([]trass.Match, *trass.QueryStats, error) {
	tw := req.timeWindow()
	switch req.Kind {
	case KindThreshold:
		q, err := s.queryTrajectory(req)
		if err != nil {
			return nil, nil, err
		}
		return s.db.ThresholdSearchWindowContext(ctx, q, req.Eps, tw)
	case KindTopK:
		q, err := s.queryTrajectory(req)
		if err != nil {
			return nil, nil, err
		}
		if err := checkK(KindTopK, req.K); err != nil {
			return nil, nil, err
		}
		return s.db.TopKSearchWindowContext(ctx, q, req.K, tw)
	case KindRange:
		rect, err := req.rect()
		if err != nil {
			return nil, nil, badRequest(err)
		}
		return s.db.RangeSearchWindowContext(ctx, rect, tw)
	case KindKNN:
		if req.Point == nil {
			return nil, nil, badRequest(fmt.Errorf("knn requires a point"))
		}
		if err := checkK(KindKNN, req.K); err != nil {
			return nil, nil, err
		}
		if !tw.Unbounded() {
			return nil, nil, badRequest(fmt.Errorf("knn has no time-window variant"))
		}
		return s.db.NearestSearchContext(ctx, trass.Point{X: req.Point[0], Y: req.Point[1]}, req.K)
	default:
		return nil, nil, badRequest(fmt.Errorf("unknown query kind %q", req.Kind))
	}
}

// rect validates the range query's spatial window.
func (req *QueryRequest) rect() (trass.Rect, error) {
	if req.Rect == nil {
		return trass.Rect{}, fmt.Errorf("range requires a rect [minX,minY,maxX,maxY]")
	}
	r := *req.Rect
	if r[0] > r[2] || r[1] > r[3] {
		return trass.Rect{}, fmt.Errorf("malformed rect: min exceeds max")
	}
	return trass.Rect{
		Min: trass.Point{X: r[0], Y: r[1]},
		Max: trass.Point{X: r[2], Y: r[3]},
	}, nil
}

// badRequestError marks a client error so writeQueryError picks 400 over 500.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return badRequestError{err: err} }

// writeQueryError maps a query failure onto a status code: client mistakes
// are 400, deadline expiry 504, everything else 500.
func writeQueryError(w http.ResponseWriter, err error) {
	var br badRequestError
	switch {
	case errors.As(err, &br):
		writeError(w, http.StatusBadRequest, "%v", br.err)
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
