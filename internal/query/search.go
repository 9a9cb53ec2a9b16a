package query

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/traj"
)

// Kind names one of the four searches.
type Kind int

const (
	KindThreshold Kind = iota + 1 // every trajectory within Eps of Traj (Algorithm 3)
	KindTopK                      // the K trajectories nearest Traj (Algorithm 4)
	KindRange                     // every trajectory with a point inside Rect
	KindNearest                   // the K trajectories passing nearest Point
)

// Query is one search request. Kind selects which of the other fields are
// read; the rest are ignored.
type Query struct {
	Kind  Kind
	Traj  *traj.Trajectory // KindThreshold, KindTopK
	Rect  geo.Rect         // KindRange
	Point geo.Point        // KindNearest
	Eps   float64          // KindThreshold
	K     int              // KindTopK, KindNearest; K <= 0 matches nothing
	// Window restricts the search to trajectories observed within it; the
	// zero value restricts nothing. KindNearest has no windowed form.
	Window TimeWindow
}

// ErrInvalidQuery is wrapped by every error Search returns for a Query that
// cannot be run as written — a caller mistake, not a storage failure.
var ErrInvalidQuery = errors.New("invalid query")

func (q *Query) validate() error {
	switch q.Kind {
	case KindThreshold, KindTopK:
		if q.Kind == KindThreshold && (q.Eps < 0 || math.IsNaN(q.Eps)) {
			return fmt.Errorf("%w: threshold %v is negative or NaN", ErrInvalidQuery, q.Eps)
		}
		if q.Traj == nil || len(q.Traj.Points) == 0 {
			return fmt.Errorf("%w: empty query trajectory", ErrInvalidQuery)
		}
		return checkCoords(q.Traj.Points...)
	case KindRange:
		if q.Rect.IsEmpty() {
			return fmt.Errorf("%w: rect min %v exceeds max %v", ErrInvalidQuery, q.Rect.Min, q.Rect.Max)
		}
		return checkCoords(q.Rect.Min, q.Rect.Max)
	case KindNearest:
		if !q.Window.Unbounded() {
			return fmt.Errorf("%w: nearest-to-point search has no time-window variant", ErrInvalidQuery)
		}
		return checkCoords(q.Point)
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrInvalidQuery, q.Kind)
	}
}

func checkCoords(pts ...geo.Point) error {
	if err := geo.CheckUnit(pts...); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	return nil
}

// Search runs q against one snapshot of the store: planning and every scan
// read the same point-in-time view, immune to concurrent ingest.
//
// With a nil sink the matches are returned in a total order that no worker
// count, queue depth or shard count can change: row-key order for threshold
// and range, ascending by (distance, id) for top-k and nearest — the k
// smallest under that order, so a tie at the kth distance goes to the smaller
// id. With a non-nil sink the returned slice is nil and every match goes to
// sink instead: threshold and range matches as refinement produces them (order
// unspecified, memory bounded by the pipeline depth however many match),
// top-k and nearest matches in (distance, id) order once the search has
// finished.
// A non-nil error from sink aborts the search and is returned as-is.
// Cancelling ctx aborts the storage scans and surfaces ctx's error.
func (e *Engine) Search(ctx context.Context, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	if err := q.validate(); err != nil {
		return nil, nil, err
	}
	snap, err := e.store.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = snap.Close() }()

	switch q.Kind {
	case KindThreshold:
		return e.threshold(ctx, snap, q, sink)
	case KindTopK:
		return e.topK(ctx, snap, q, sink)
	case KindRange:
		return e.rangeQuery(ctx, snap, q, sink)
	default:
		return e.nearestToPoint(ctx, snap, q, sink)
	}
}

// ThresholdContext is Search for an unwindowed KindThreshold query.
func (e *Engine) ThresholdContext(ctx context.Context, q *traj.Trajectory, eps float64) ([]Result, *Stats, error) {
	return e.Search(ctx, Query{Kind: KindThreshold, Traj: q, Eps: eps}, nil)
}

// TopKContext is Search for an unwindowed KindTopK query.
func (e *Engine) TopKContext(ctx context.Context, q *traj.Trajectory, k int) ([]Result, *Stats, error) {
	return e.Search(ctx, Query{Kind: KindTopK, Traj: q, K: k}, nil)
}

// RangeContext is Search for an unwindowed KindRange query.
func (e *Engine) RangeContext(ctx context.Context, window geo.Rect) ([]Result, *Stats, error) {
	return e.Search(ctx, Query{Kind: KindRange, Rect: window}, nil)
}
