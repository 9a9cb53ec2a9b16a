package bench

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
)

// The refine experiment measures the parallel refinement executor on a
// refinement-dominated workload: a dense cluster of near-duplicate
// trajectories, so every stored row survives global pruning and local
// filtering and pays for a full similarity computation. It is the
// trassbench counterpart of the query package's BenchmarkRefine{Seq,Par};
// the CI bench-smoke job records its JSON output (BENCH_refine.json) so the
// sequential-vs-parallel refinement trajectory is tracked per commit.

const (
	refineRows    = 250 // candidates refined per query (the CI gate wants ≥ 200)
	refinePoints  = 120 // points per trajectory; DTW/Fréchet cost is O(pts²)
	refineWorkers = 4   // parallel pool size the gate compares against seq
)

// refineWorkload builds the cluster: one base random walk plus rows jittered
// copies, all mutually within a small threshold.
func refineWorkload(seed int64) (base *traj.Trajectory, rows []*traj.Trajectory) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, refinePoints)
	x, y := 0.4+0.2*rng.Float64(), 0.4+0.2*rng.Float64()
	for i := range pts {
		pts[i] = geo.Point{X: geo.Clamp01(x), Y: geo.Clamp01(y)}
		x += (rng.Float64() - 0.5) * 0.001
		y += (rng.Float64() - 0.5) * 0.001
	}
	base = traj.New("base", pts)
	rows = make([]*traj.Trajectory, 0, refineRows)
	for i := 0; i < refineRows; i++ {
		jp := make([]geo.Point, len(pts))
		for j, p := range pts {
			jp[j] = geo.Point{
				X: geo.Clamp01(p.X + (rng.Float64()-0.5)*0.002),
				Y: geo.Clamp01(p.Y + (rng.Float64()-0.5)*0.002),
			}
		}
		rows = append(rows, traj.New(fmt.Sprintf("r%05d", i), jp))
	}
	return base, rows
}

// refineEps is a threshold that admits the whole cluster under each measure.
func refineEps(m dist.Measure) float64 {
	if m == dist.DTW {
		return 0.5 // DTW accumulates per point pair
	}
	return 0.02
}

// Refine regenerates the refinement-executor comparison: sequential (one
// worker) vs parallel (refineWorkers) refinement wall-clock per measure.
func Refine(cfg Config) ([]*Table, error) {
	tab := &Table{
		Title: fmt.Sprintf("Refine — sequential vs parallel refinement executor (%d candidates/query, %d workers)",
			refineRows, refineWorkers),
		Columns: []string{"measure", "workers", "refined/query", "refine median", "refine cpu", "query median", "speedup"},
	}
	base, rows := refineWorkload(cfg.Seed)
	queries := cfg.Queries
	if queries > 5 {
		queries = 5 // refinement-dominated queries are expensive; medians stabilize fast
	}

	st, err := store.Open(store.Config{Dir: filepath.Join(cfg.Dir, "refine")})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.PutBatch(rows); err != nil {
		return nil, err
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}

	for _, measure := range []dist.Measure{dist.Frechet, dist.Hausdorff, dist.DTW} {
		eng := query.New(st, measure)
		eps := refineEps(measure)
		var seqRefine time.Duration
		for _, workers := range []int{1, refineWorkers} {
			eng.SetRefineParallelism(workers)
			var refineTimes, cpuTimes, queryTimes []time.Duration
			var refined float64
			for qi := 0; qi < queries; qi++ {
				t0 := time.Now()
				rs, qs, err := eng.ThresholdContext(context.Background(), base, eps)
				if err != nil {
					return nil, err
				}
				queryTimes = append(queryTimes, time.Since(t0))
				refineTimes = append(refineTimes, qs.RefineTime)
				cpuTimes = append(cpuTimes, qs.RefineCPUTime)
				refined += float64(qs.Refined)
				if len(rs) != refineRows {
					return nil, fmt.Errorf("refine: %s matched %d of %d cluster rows; workload must refine the whole cluster",
						measure, len(rs), refineRows)
				}
			}
			med := median(refineTimes)
			speedup := "1.00x"
			if workers == 1 {
				seqRefine = med
			} else if med > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(seqRefine)/float64(med))
			}
			tab.AddRow(measure.String(),
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%.0f", refined/float64(queries)),
				med.Round(time.Microsecond).String(),
				median(cpuTimes).Round(time.Microsecond).String(),
				median(queryTimes).Round(time.Microsecond).String(),
				speedup)
			cfg.logf("refine %s workers=%d done", measure, workers)
		}
	}
	return []*Table{tab}, nil
}
