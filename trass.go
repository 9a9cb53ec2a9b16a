// Package trass is an embedded trajectory similarity search engine — a Go
// reproduction of "TraSS: Efficient Trajectory Similarity Search Based on
// Key-Value Data Stores" (ICDE 2022).
//
// Trajectories are stored in an HBase-style, range-partitioned key-value
// substrate under XZ* index keys: a fine-grained static spatial index whose
// enlarged elements and position codes capture both the size and the shape
// of each trajectory. Queries run in two pruning stages before any exact
// similarity computation: global pruning converts the query into a handful
// of key-range scans, and local filtering — pushed down into the region
// servers like an HBase coprocessor — rejects candidates using pre-computed
// Douglas-Peucker features.
//
// The Douglas-Peucker tolerance is 0.01 in normalized plane units, which is
// not the paper's 0.01° (≈ 2.8e-5 plane units) but 360× coarser: most
// trajectories keep a single feature box, their MBR, so local filtering
// prunes less than the paper's. Filtering stays sound; only its strength
// differs (DESIGN.md §2).
//
// Basic use:
//
//	db, err := trass.Open("/data/taxis", trass.WithShards(8))
//	...
//	db.Put(trass.NewTrajectory("cab-42", points))
//	matches, err := db.ThresholdSearch(query, 0.005)
//	nearest, err := db.TopKSearch(query, 50)
//
// Those two, RangeSearch and NearestSearch are shorthands for the one entry
// point, Search, which takes a Query value, a context and an optional sink
// for streamed delivery.
//
// Coordinates live on the normalized plane [0,1)². Use NormalizeLonLat for
// longitude/latitude data. Three similarity measures are supported: discrete
// Fréchet (default), Hausdorff, and DTW.
package trass

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
)

// ErrNotFound is returned by Get for an unknown trajectory id.
var ErrNotFound = kv.ErrNotFound

// Measure selects the trajectory similarity measure.
type Measure = dist.Measure

// Supported measures.
const (
	Frechet   = dist.Frechet
	Hausdorff = dist.Hausdorff
	DTW       = dist.DTW
)

// Point is a location on the normalized plane [0,1)².
type Point = geo.Point

// Trajectory is an identified point sequence.
type Trajectory = traj.Trajectory

// NewTrajectory builds a trajectory from an id and points (copied). It
// panics on an empty point slice.
func NewTrajectory(id string, pts []Point) *Trajectory { return traj.New(id, pts) }

// NewTimedTrajectory is NewTrajectory with per-point Unix-seconds timestamps
// (one per point, copied). Timestamps never affect indexing; they feed the
// time-window query variants.
func NewTimedTrajectory(id string, pts []Point, times []int64) *Trajectory {
	return traj.NewTimed(id, pts, times)
}

// TimeWindow restricts a query to trajectories observed within
// [Start, End] Unix seconds (inclusive); zero leaves a side unbounded.
// Untimed trajectories match every window.
type TimeWindow = query.TimeWindow

// NormalizeLonLat maps longitude/latitude onto the normalized plane.
func NormalizeLonLat(lon, lat float64) Point { return geo.NormalizeLonLat(lon, lat) }

// DenormalizeLonLat is the inverse of NormalizeLonLat.
func DenormalizeLonLat(p Point) (lon, lat float64) { return geo.DenormalizeLonLat(p) }

// Match is one query result. Range matches carry no distance.
type Match = query.Result

// Query is one search request: Kind selects the search and which of the
// other fields it reads.
//
//	Kind           reads                    matches
//	KindThreshold  Traj, Eps, Window        every trajectory within Eps of Traj
//	KindTopK       Traj, K, Window          the K trajectories nearest Traj
//	KindRange      Rect, Window             every trajectory with a point in Rect
//	KindNearest    Point, K                 the K trajectories passing nearest Point
type Query = query.Query

// The four searches.
const (
	KindThreshold = query.KindThreshold
	KindTopK      = query.KindTopK
	KindRange     = query.KindRange
	KindNearest   = query.KindNearest
)

// ErrInvalidQuery is wrapped by every error Search returns for a Query that
// cannot be run as written: a negative or NaN Eps, a nil or empty Traj where
// one is read, an unknown Kind, KindNearest with a bounded Window, an
// inverted Rect (Min above Max on either axis), or a coordinate (of Traj,
// Rect or Point) that is NaN, infinite or outside the unit square.
var ErrInvalidQuery = query.ErrInvalidQuery

// ErrInvalidTrajectory is wrapped by the error Put and PutBatch return for a
// trajectory that cannot be indexed: nil, empty, or with a coordinate that is
// NaN, infinite or outside the unit square [0,1]². Nothing is written.
var ErrInvalidTrajectory = store.ErrInvalidTrajectory

// QueryStats reports what one query did: planning, scanning and refinement
// times plus the candidate counts the TraSS paper's evaluation tracks.
type QueryStats = query.Stats

// Option configures Open.
type Option func(*store.Config, *config)

type config struct {
	measure Measure
}

// WithShards sets the row-key hash fan-out of a new database (default 8, the
// paper's value). An existing directory records the value it was created
// with: Open without this option adopts it, and refuses one that differs.
func WithShards(n int) Option {
	return func(sc *store.Config, _ *config) { sc.Shards = n }
}

// WithMaxResolution sets the XZ* maximum resolution of a new database
// (default 16). Like WithShards, it is recorded at creation, adopted by an
// Open without the option and refused when it differs.
func WithMaxResolution(r int) Option {
	return func(sc *store.Config, _ *config) { sc.MaxResolution = r }
}

// WithMeasure selects the similarity measure (default Fréchet).
func WithMeasure(m Measure) Option {
	return func(_ *store.Config, c *config) { c.measure = m }
}

// WithSyncWrites makes every acknowledged write durable before Put returns
// (WAL fsync per write). Slower, but a crash — even a power loss — loses
// nothing that was acknowledged. Without it, durability is at flush
// granularity.
func WithSyncWrites() Option {
	return func(sc *store.Config, _ *config) { sc.SyncWrites = true }
}

// DB is an open trajectory store with its query engine.
type DB struct {
	store  *store.Store
	engine *query.Engine
}

// Open creates a TraSS database rooted at dir, or opens the one already there
// at the shards and resolution it was created with.
func Open(dir string, opts ...Option) (*DB, error) {
	sc := store.Config{Dir: dir}
	c := config{measure: Frechet}
	for _, o := range opts {
		o(&sc, &c)
	}
	st, err := store.Open(sc)
	if err != nil {
		return nil, err
	}
	return &DB{store: st, engine: query.New(st, c.measure)}, nil
}

// Put is PutBatch of one trajectory.
func (db *DB) Put(t *Trajectory) error { return db.store.Put(t) }

// PutBatch indexes and stores trajectories. Putting an id that is already
// stored replaces its row, and within a batch the last entry for an id wins.
// If any trajectory cannot be indexed the call fails with an error wrapping
// ErrInvalidTrajectory and writes nothing. Writers of different ids may run
// concurrently; writers of the same id must be serialised by the caller.
func (db *DB) PutBatch(ts []*Trajectory) error { return db.store.PutBatch(ts) }

// Flush persists in-memory data to disk.
func (db *DB) Flush() error { return db.store.Flush() }

// Compact merges each region's files and drops shadowed versions.
func (db *DB) Compact() error { return db.store.Compact() }

// Count returns the number of stored trajectories.
func (db *DB) Count() int64 { return db.store.Count() }

// StorageStats aggregates the storage layer's counters across every region:
// write and read volumes, flush/compaction activity, group-commit and WAL
// fsync counts and scan RPCs (Retries is always zero: a failed region call is
// not retried). KV.CompactDegraded reports whether any
// region's background compaction is failing — the store keeps serving reads
// and writes in that state, but merges are behind.
// The MVCC gauges (KV.PinnedSnapshots, KV.FrozenMemtables, KV.ObsoleteTables)
// report current snapshot-read state: every query pins one snapshot for its
// lifetime, so a pinned count that never drops — with an obsolete-table
// backlog that never drains — points at a leaked reader.
type StorageStats = cluster.Stats

// StorageStats returns a snapshot of the storage layer's health and activity
// counters, or an error on a closed database.
func (db *DB) StorageStats() (StorageStats, error) {
	return db.store.Cluster().Stats()
}

// Get fetches one stored trajectory by id, or ErrNotFound.
func (db *DB) Get(id string) (*Trajectory, error) {
	rec, err := db.store.GetByID(id)
	if err != nil {
		return nil, err
	}
	return &Trajectory{ID: rec.ID, Points: rec.Points, Times: rec.Times}, nil
}

// Search runs q. With a nil sink it returns the matches in a total order, the
// same for any parallelism or shard count: row-key order for KindThreshold
// and KindRange, ascending by (distance, id) for KindTopK and KindNearest — a
// tie at the kth distance goes to the smaller id. With a non-nil sink it
// returns no slice and passes every match to sink instead — threshold and
// range matches as refinement produces them, in no specified order and with
// memory bounded however many match; top-k and nearest matches in that
// (distance, id) order once the search has finished. A non-nil error from sink aborts the search and is
// returned as-is; cancelling ctx aborts the storage scans and surfaces ctx's
// error; a malformed q fails with an error wrapping ErrInvalidQuery.
//
// Every other search method below is this one called with a fixed Query
// shape.
func (db *DB) Search(ctx context.Context, q Query, sink func(Match) error) ([]Match, *QueryStats, error) {
	return db.engine.Search(ctx, q, sink)
}

func matchesOnly(ms []Match, _ *QueryStats, err error) ([]Match, error) { return ms, err }

func statsOnly(_ []Match, st *QueryStats, err error) (*QueryStats, error) { return st, err }

// ThresholdSearch returns every stored trajectory within eps of q under the
// database's measure (Definition 3 of the paper).
func (db *DB) ThresholdSearch(q *Trajectory, eps float64) ([]Match, error) {
	return matchesOnly(db.Search(context.Background(), Query{Kind: KindThreshold, Traj: q, Eps: eps}, nil))
}

// TopKSearch returns the k stored trajectories nearest to q, ascending by
// (distance, id) (Definition 4 of the paper, ties settled by id).
func (db *DB) TopKSearch(q *Trajectory, k int) ([]Match, error) {
	return matchesOnly(db.Search(context.Background(), Query{Kind: KindTopK, Traj: q, K: k}, nil))
}

// Rect is an axis-parallel window on the normalized plane.
type Rect = geo.Rect

// RangeSearch returns every stored trajectory with at least one point inside
// window (the spatial range query the paper's conclusion mentions XZ* also
// supports).
func (db *DB) RangeSearch(window Rect) ([]Match, error) {
	return matchesOnly(db.Search(context.Background(), Query{Kind: KindRange, Rect: window}, nil))
}

// NearestSearch returns the k stored trajectories whose closest approach to
// point p is smallest, ascending by (that distance, id).
func (db *DB) NearestSearch(p Point, k int) ([]Match, error) {
	return matchesOnly(db.Search(context.Background(), Query{Kind: KindNearest, Point: p, K: k}, nil))
}

// The methods from here to Verify are the fixed-shape calls the serving layer
// (server.Backend) and the repo benchmark are written against.

// ThresholdSearchContext is ThresholdSearch under ctx, plus per-query
// statistics.
func (db *DB) ThresholdSearchContext(ctx context.Context, q *Trajectory, eps float64) ([]Match, *QueryStats, error) {
	return db.Search(ctx, Query{Kind: KindThreshold, Traj: q, Eps: eps}, nil)
}

// TopKSearchContext is TopKSearch under ctx, plus per-query statistics.
func (db *DB) TopKSearchContext(ctx context.Context, q *Trajectory, k int) ([]Match, *QueryStats, error) {
	return db.Search(ctx, Query{Kind: KindTopK, Traj: q, K: k}, nil)
}

// RangeSearchContext is RangeSearch under ctx, plus per-query statistics.
func (db *DB) RangeSearchContext(ctx context.Context, window Rect) ([]Match, *QueryStats, error) {
	return db.Search(ctx, Query{Kind: KindRange, Rect: window}, nil)
}

// RangeSearchFunc is RangeSearchContext delivering each match to fn.
func (db *DB) RangeSearchFunc(ctx context.Context, window Rect, fn func(Match) error) (*QueryStats, error) {
	return statsOnly(db.Search(ctx, Query{Kind: KindRange, Rect: window}, fn))
}

// NearestSearchContext is NearestSearch under ctx, plus per-query statistics.
func (db *DB) NearestSearchContext(ctx context.Context, p Point, k int) ([]Match, *QueryStats, error) {
	return db.Search(ctx, Query{Kind: KindNearest, Point: p, K: k}, nil)
}

// ThresholdSearchWindowContext is ThresholdSearchContext restricted to
// trajectories observed within w.
func (db *DB) ThresholdSearchWindowContext(ctx context.Context, q *Trajectory, eps float64, w TimeWindow) ([]Match, *QueryStats, error) {
	return db.Search(ctx, Query{Kind: KindThreshold, Traj: q, Eps: eps, Window: w}, nil)
}

// ThresholdSearchWindowFunc is ThresholdSearchWindowContext delivering each
// match to fn.
func (db *DB) ThresholdSearchWindowFunc(ctx context.Context, q *Trajectory, eps float64, w TimeWindow, fn func(Match) error) (*QueryStats, error) {
	return statsOnly(db.Search(ctx, Query{Kind: KindThreshold, Traj: q, Eps: eps, Window: w}, fn))
}

// TopKSearchWindowContext is TopKSearchContext restricted to trajectories
// observed within w.
func (db *DB) TopKSearchWindowContext(ctx context.Context, q *Trajectory, k int, w TimeWindow) ([]Match, *QueryStats, error) {
	return db.Search(ctx, Query{Kind: KindTopK, Traj: q, K: k, Window: w}, nil)
}

// RangeSearchWindowContext is RangeSearchContext restricted to trajectories
// observed within w.
func (db *DB) RangeSearchWindowContext(ctx context.Context, window Rect, w TimeWindow) ([]Match, *QueryStats, error) {
	return db.Search(ctx, Query{Kind: KindRange, Rect: window, Window: w}, nil)
}

// RangeSearchWindowFunc is RangeSearchWindowContext delivering each match to
// fn.
func (db *DB) RangeSearchWindowFunc(ctx context.Context, window Rect, w TimeWindow, fn func(Match) error) (*QueryStats, error) {
	return statsOnly(db.Search(ctx, Query{Kind: KindRange, Rect: window, Window: w}, fn))
}

// Verify checks the integrity (block checksums) of every on-disk file.
func (db *DB) Verify() error { return db.store.Verify() }

// Close shuts the database down.
func (db *DB) Close() error { return db.store.Close() }
