// Package query implements TraSS's query processing (Section V): global
// pruning turns a query into a few key-range scans, local filtering rejects
// dissimilar trajectories inside the region servers (Lemmas 12-14), and only
// the survivors pay for a full similarity computation.
package query

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// Engine executes similarity searches against a trajectory store.
type Engine struct {
	store         *store.Store
	measure       dist.Measure
	kernel        dist.BoundedFunc // measure's bounded kernel: the one distance call a candidate pays
	budget        int              // global-pruning element budget; only tests set it (0 = default)
	refineWorkers int              // refinement pool size; only tests set it (0 = see refineParallelism)
	streamDepth   int              // candidate-queue depth; only tests set it (0 = see streamQueueDepth)
	tuning        Tuning
}

// Tuning disables individual pruning stages; the ablation experiment uses it
// to isolate what each stage contributes. The zero value is full TraSS.
type Tuning struct {
	// DisableLocalFilter skips the Lemma 12-14 push-down entirely: every
	// scanned row ships and is refined.
	DisableLocalFilter bool
	// EndpointOnlyFilter reduces local filtering to the start/end check of
	// Lemma 12, the filter JUST-style systems use.
	EndpointOnlyFilter bool
	// DisablePosCodes removes the position-code lemmas from global pruning,
	// leaving element-level pruning only (plain XZ-Ordering behaviour).
	DisablePosCodes bool
}

// SetTuning replaces the engine's ablation switches.
func (e *Engine) SetTuning(t Tuning) { e.tuning = t }

// New builds an engine over st using the given similarity measure.
func New(st *store.Store, measure dist.Measure) *Engine {
	return &Engine{store: st, measure: measure, kernel: dist.BoundedFor(measure)}
}

// Result is one matched trajectory.
type Result struct {
	ID       string
	Distance float64
	Points   []geo.Point
}

// Stats describes what one query did; the Fig. 9-11 experiments report
// these numbers.
type Stats struct {
	PruneTime time.Duration // global pruning (index-space planning)
	ScanTime  time.Duration // storage scans incl. push-down filtering
	// RefineTime is the refinement stage's wall-clock: decoding shipped rows
	// plus similarity computations, accumulated across batches (top-k
	// refines once per frontier drain). With parallel refinement this is
	// elapsed time, not work done — see RefineCPUTime for that.
	RefineTime time.Duration
	// RefineCPUTime is the cumulative busy time across refinement workers
	// (decode + lower bound + distance per candidate, summed).
	// RefineCPUTime/RefineTime approximates the refinement speedup actually
	// realized.
	RefineCPUTime time.Duration
	// DecodeTime and KernelTime split RefineCPUTime: the summed worker time
	// decoding the rows the workers reached — the one decode a row ever gets —
	// and inside the distance kernel. What is left is a best-first search's
	// bounding of its shipped rows from their bytes.
	DecodeTime time.Duration
	KernelTime time.Duration
	// SeedTime is the wall-clock of a top-k search's seeding phase — the
	// scans of the query's own element and the ancestors it had to climb
	// until k rows had shipped, and the bounding of those rows; no kernel
	// runs in it — which ScanTime and RefineTime also count.
	SeedTime time.Duration
	// RefineWorkers is the largest worker-pool size the query's refinement
	// used (1 = sequential; batches smaller than the pool clamp it).
	RefineWorkers int

	Ranges      int   // key ranges scanned (after merging)
	RowsScanned int64 // rows visited inside regions
	// RowsWalked is how many of the scanned rows had their point stream
	// walked by the pushed-down filter; the rest fell at their first point or
	// feature boxes, or were never checked.
	RowsWalked   int64
	Retrieved    int64 // rows that survived local filtering and were shipped: the candidates Fig. 9(b)/10(b) plot
	BytesShipped int64
	RPCs         int64
	Retries      int64 // always zero: a failed region call is not retried; kept for the benchmark
	Refined      int   // distance-kernel calls (best-first: shipped rows whose lower bound never came within the kth distance are not counted)
	Results      int

	// Streaming-pipeline observability.
	StreamBatches int64 // scan batches delivered into the candidate queue
	// StreamPeakDepth is the peak number of candidates resident between scan
	// and merge: bounded by the pipeline depth for threshold and range; for
	// top-k and nearest, the most shipped rows held unrefined at once.
	StreamPeakDepth int
	// StreamStallTime is how long the scan spent blocked on the candidate
	// queue — backpressure from refinement into the region scans.
	StreamStallTime time.Duration
}

// absorbScan folds one storage scan's I/O accounting into the stats.
func (s *Stats) absorbScan(res *cluster.ScanResult) {
	s.RowsScanned += res.RowsScanned
	s.Retrieved += res.RowsReturned
	s.BytesShipped += res.BytesShipped
	s.RPCs += res.RPCs
}

// Precision is final answers over candidates (Fig. 11(c)).
func (s *Stats) Precision() float64 {
	if s.Retrieved == 0 {
		return 1
	}
	return float64(s.Results) / float64(s.Retrieved)
}

// queryGeom bundles the pre-computed geometry of the query trajectory.
type queryGeom struct {
	points   []geo.Point
	features *traj.Features
	rep      []geo.Point // representative points
	xq       *xzstar.Query
}

// prepare pre-computes the geometry of q, which Search has checked is
// non-empty.
func (e *Engine) prepare(q *traj.Trajectory) *queryGeom {
	f := traj.ComputeFeatures(q, e.store.Config().DPTolerance)
	return &queryGeom{
		points:   q.Points,
		features: f,
		rep:      f.RepPoints(q),
		xq:       xzstar.NewQuery(q.Points, f.Boxes),
	}
}
