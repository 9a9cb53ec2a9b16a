// Package bench regenerates the tables and figures of the paper's
// evaluation (Section VI and the Section VII measure study). Every figure
// has one exported runner returning a Table; cmd/trassbench exposes them on
// the command line and bench_test.go wires them into `go test -bench`.
//
// Absolute numbers differ from the paper — its testbed is a five-node HBase
// cluster over real datasets — but each experiment preserves the quantity
// the paper plots (query time, candidates, rows scanned, precision, key
// bytes, selectivity, tail latency) so the comparisons keep their shape.
// EXPERIMENTS.md records paper-vs-measured for each figure.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/vfs"
)

// Config sizes an experiment run. The zero value plus WithDefaults gives a
// laptop-scale run; raise the dataset sizes to approach the paper's scale.
type Config struct {
	// Dir is scratch space for the on-disk systems (TraSS, JUST). Required.
	Dir string
	// TDriveN and LorryN size the two synthetic datasets. Defaults 8000.
	TDriveN, LorryN int
	// Queries is how many query trajectories each data point aggregates
	// over (the paper uses 400 and reports the median). Default 15.
	Queries int
	// Seed fixes all randomness.
	Seed int64
	// Out receives progress lines; nil silences them.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.TDriveN <= 0 {
		c.TDriveN = 8000
	}
	if c.LorryN <= 0 {
		c.LorryN = 8000
	}
	if c.Queries <= 0 {
		c.Queries = 15
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Out != nil {
		// Progress logging is best-effort; a broken progress writer must not
		// abort a multi-minute benchmark run.
		_, _ = fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

// Epsilons is the paper's threshold sweep (Fig. 9), in degrees.
var Epsilons = []float64{0.001, 0.005, 0.01, 0.015, 0.02}

// Ks is the paper's top-k sweep (Fig. 10).
var Ks = []int{50, 100, 150, 200, 250}

// Table is one regenerated figure: column headers plus formatted rows.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table with aligned columns. The first write error is
// returned; later writes are skipped.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	ew := &errWriter{w: w}
	ew.printf("## %s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				ew.printf("  ")
			}
			ew.printf("%-*s", widths[min(i, len(widths)-1)], c)
		}
		ew.printf("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return ew.err
}

// errWriter is a sticky-error formatter: after the first write failure every
// later printf is a no-op, so rendering code stays free of per-line checks.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// datasetKind names the two workloads.
type datasetKind string

const (
	dsTDrive datasetKind = "tdrive"
	dsLorry  datasetKind = "lorry"
)

func (c Config) dataset(kind datasetKind) []*traj.Trajectory {
	switch kind {
	case dsTDrive:
		return gen.TDrive(gen.TDriveOptions{Seed: c.Seed, N: c.TDriveN})
	case dsLorry:
		return gen.Lorry(gen.LorryOptions{Seed: c.Seed + 1, N: c.LorryN})
	default:
		panic("bench: unknown dataset " + kind)
	}
}

// sysResult is one (system, parameter) cell: the medians the paper plots.
type sysResult struct {
	medianTime time.Duration
	p99Time    time.Duration
	candidates float64 // mean candidates per query
	scanned    float64 // mean rows/entries visited per query
	pruneTime  time.Duration
	precision  float64
	results    float64
}

// runThreshold executes a threshold workload against any System.
func runThreshold(sys baselines.System, queries []*traj.Trajectory, eps float64) (sysResult, error) {
	times := make([]time.Duration, 0, len(queries))
	var cand, scanned, prune, results float64
	for _, q := range queries {
		t0 := time.Now()
		res, st, err := sys.Threshold(q, eps)
		if err != nil {
			return sysResult{}, err
		}
		times = append(times, time.Since(t0))
		cand += float64(st.Candidates)
		scanned += float64(st.Scanned)
		prune += float64(st.PruneTime)
		results += float64(len(res))
	}
	n := float64(len(queries))
	out := sysResult{
		medianTime: median(times),
		p99Time:    percentile(times, 0.99),
		candidates: cand / n,
		scanned:    scanned / n,
		pruneTime:  time.Duration(prune / n),
		results:    results / n,
	}
	if cand > 0 {
		out.precision = results / cand
	} else {
		out.precision = 1
	}
	return out, nil
}

// runTopK executes a top-k workload against any System.
func runTopK(sys baselines.System, queries []*traj.Trajectory, k int) (sysResult, error) {
	times := make([]time.Duration, 0, len(queries))
	var cand, scanned, prune float64
	for _, q := range queries {
		t0 := time.Now()
		_, st, err := sys.TopK(q, k)
		if err != nil {
			return sysResult{}, err
		}
		times = append(times, time.Since(t0))
		cand += float64(st.Candidates)
		scanned += float64(st.Scanned)
		prune += float64(st.PruneTime)
	}
	n := float64(len(queries))
	return sysResult{
		medianTime: median(times),
		p99Time:    percentile(times, 0.99),
		candidates: cand / n,
		scanned:    scanned / n,
		pruneTime:  time.Duration(prune / n),
	}, nil
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), ds...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(math.Ceil(p * float64(len(cp)-1)))
	return cp[idx]
}

// trassSystem adapts the TraSS store+engine to the baselines.System
// interface so one measurement loop covers every contender.
type trassSystem struct {
	dir     string
	measure dist.Measure
	shards  int
	maxRes  int
	st      *store.Store
	eng     *query.Engine
}

func newTraSS(dir string, measure dist.Measure) *trassSystem {
	return &trassSystem{dir: dir, measure: measure, shards: 8, maxRes: 16}
}

func (t *trassSystem) Name() string { return "TraSS" }

func (t *trassSystem) Build(trajs []*traj.Trajectory) (time.Duration, error) {
	st, err := store.Open(store.Config{
		Dir:           t.dir,
		Shards:        t.shards,
		MaxResolution: t.maxRes,
		DPTolerance:   gen.DegreesToNorm(0.01),
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := st.PutBatch(trajs); err != nil {
		_ = st.Close()
		return 0, err
	}
	if err := st.Flush(); err != nil {
		_ = st.Close()
		return 0, err
	}
	elapsed := time.Since(start)
	t.st = st
	t.eng = query.New(st, t.measure)
	return elapsed, nil
}

func (t *trassSystem) Threshold(q *traj.Trajectory, eps float64) ([]baselines.Result, *baselines.Stats, error) {
	return toBaseline(t.eng.ThresholdContext(context.Background(), q, eps))
}

func (t *trassSystem) TopK(q *traj.Trajectory, k int) ([]baselines.Result, *baselines.Stats, error) {
	return toBaseline(t.eng.TopKContext(context.Background(), q, k))
}

func (t *trassSystem) Close() error {
	if t.st == nil {
		return nil
	}
	return t.st.Close()
}

func toBaseline(rs []query.Result, st *query.Stats, err error) ([]baselines.Result, *baselines.Stats, error) {
	if err != nil {
		return nil, nil, err
	}
	out := make([]baselines.Result, len(rs))
	for i, r := range rs {
		out[i] = baselines.Result{ID: r.ID, Distance: r.Distance}
	}
	return out, &baselines.Stats{
		Candidates: st.Retrieved,
		Scanned:    st.RowsScanned,
		PruneTime:  st.PruneTime,
		RefineTime: st.RefineTime,
	}, nil
}

// buildSystems constructs and loads the requested systems over one dataset.
func (c Config) buildSystems(kind datasetKind, measure dist.Measure, names []string, trajs []*traj.Trajectory) (map[string]baselines.System, map[string]time.Duration, error) {
	systems := map[string]baselines.System{}
	buildTimes := map[string]time.Duration{}
	for _, name := range names {
		var sys baselines.System
		switch name {
		case "TraSS":
			sys = newTraSS(filepath.Join(c.Dir, fmt.Sprintf("trass-%s-%s", kind, measure)), measure)
		case "DFT":
			sys = baselines.NewDFT(measure)
		case "DITA":
			sys = baselines.NewDITA(measure)
		case "REPOSE":
			sys = baselines.NewREPOSE(measure)
		case "JUST":
			sys = baselines.NewJUST(measure, filepath.Join(c.Dir, fmt.Sprintf("just-%s-%s", kind, measure)))
		default:
			return nil, nil, fmt.Errorf("bench: unknown system %q", name)
		}
		c.logf("building %s over %s (%d trajectories)...", name, kind, len(trajs))
		d, err := sys.Build(trajs)
		if err != nil {
			closeAll(systems)
			return nil, nil, fmt.Errorf("build %s: %w", name, err)
		}
		systems[name] = sys
		buildTimes[name] = d
	}
	return systems, buildTimes, nil
}

func closeAll(systems map[string]baselines.System) {
	for _, s := range systems {
		// Best-effort teardown between experiments; the in-memory baselines
		// never fail to close and the TraSS store's state is discarded anyway.
		_ = s.Close()
	}
}

// Runners maps experiment ids to their implementations, in the order the
// paper presents them.
var Runners = []struct {
	Name string
	Desc string
	Run  func(Config) ([]*Table, error)
}{
	{"fig9", "threshold search: query time + candidates vs ε (TraSS, DFT, DITA, JUST)", Fig9},
	{"fig10", "top-k search: query time + candidates vs k (plus REPOSE)", Fig10},
	{"fig11", "pruning strategies: prune time, retrieved rows, precision at ε=0.01°", Fig11},
	{"fig12", "trajectory distribution over resolutions and position codes", Fig12},
	{"fig13", "indexing time and row-key storage overhead (integer vs string)", Fig13},
	{"fig14", "effect of max resolution: selectivity + query times", Fig14},
	{"fig17", "scalability: ×t copies of the Lorry workload", Fig17},
	{"fig18", "tail latency (p99) of threshold search", Fig18},
	{"fig19", "effect of shard count under simulated RPC latency", Fig19},
	{"fig20", "other measures: Hausdorff and DTW", Fig20},
	{"io", "I/O reduction of XZ* global pruning vs XZ-Ordering", FigIO},
	{"ablation", "contribution of each TraSS design choice", Ablation},
}

// Run executes one experiment by id and writes its tables to w. A blank
// cfg.Dir gets temporary scratch space, removed before returning.
func Run(name string, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "trassbench-*")
		if err != nil {
			return err
		}
		defer vfs.Default.RemoveAll(dir)
		cfg.Dir = dir
	}
	for _, r := range Runners {
		if r.Name != name {
			continue
		}
		tables, err := r.Run(cfg)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := t.Write(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("bench: unknown experiment %q", name)
}
