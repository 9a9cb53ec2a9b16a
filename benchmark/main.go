// Command benchmark is the repository's benchmark: four workloads over one
// generated dataset, eight end-to-end metrics from a measured run, and a
// separate traced run that walks sampled queries seam by seam for the
// per-layer metrics. See README.md in this directory.
//
//	go run . -workload thr_selective -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

// result is the line the driver reads.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is one invocation's knobs.
type runConfig struct {
	w       workload
	sc      scale
	seed    int64
	seconds float64
	traced  bool
	// traceOut is where the traced run writes its spans ("" keeps them in
	// memory only).
	traceOut string
	// info receives the human-readable report.
	info func(format string, args ...any)
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	selfcheck int
	out       string
	traceDir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same dataset, queries and writes")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time: the measured run splits it over its repetitions")
	flag.IntVar(&o.trace, "trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "tiny scale for the harness's own tests; numbers are not comparable")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run two sets of N>=5 passes (plus one discarded cold pass each) and compare them")
	flag.StringVar(&o.out, "out", "", "also write the result (or the -selfcheck report) to this file")
	flag.StringVar(&o.traceDir, "tracedir", ".bench_build", "directory the traced run writes trace_<workload>.json into")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	var ws []workload
	if o.workload == "all" {
		ws = workloads
	} else if w, ok := workloadByName(o.workload); ok {
		ws = []workload{w}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("-workload must be one of %s, or all", strings.Join(names, ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if o.selfcheck != 0 {
		return selfcheck(ctx, ws, o.seed, o.seconds, o.selfcheck, o.out)
	}
	sc := fullScale
	if o.quick {
		sc = quickScale
		fmt.Println("*** -quick: 2,000 trajectories, 200 operations. These numbers are NOT comparable with any other run. ***")
	}
	for _, w := range ws {
		cfg := runConfig{w: w, sc: sc, seed: o.seed, seconds: o.seconds, traced: o.trace != 0,
			info: func(f string, a ...any) { fmt.Printf(f+"\n", a...) }}
		if cfg.traced && o.traceDir != "" {
			cfg.traceOut = filepath.Join(o.traceDir, "trace_"+w.name+".json")
		}
		res, err := runOne(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if o.out != "" {
			if err := writeFile(o.out, append(line, '\n')); err != nil {
				return err
			}
		}
		fmt.Println(string(line))
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed, correct=%v", w.name, res.Failed, res.Attempted, res.Correct)
		}
	}
	return nil
}

// runOne is one measured or traced run of one workload.
func runOne(ctx context.Context, cfg runConfig) (*result, error) {
	cfg.info("workload %s  seed %d  measuring %.3gs  GOMAXPROCS %d  data_dir_fs memory (vfs seam)  %s",
		cfg.w.name, cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), map[bool]string{false: "measured run", true: "traced run"}[cfg.traced])
	if cfg.traced {
		return runTraced(ctx, cfg)
	}
	return runMeasured(ctx, cfg)
}

// runMeasured repeats set-up + window sc.reps times, each on a freshly built
// system and a third of the time, with no tracing. The two latency
// percentiles are read from the samples of all the windows together; every
// other metric is the median of the repetitions, so one repetition that met
// a busy stretch of a shared host does not carry the run. The repetitions
// start at evenly spaced places in the query order, so together they cover
// as many distinct queries as one long window would (a percentile per
// repetition would rest on a third of them, and on the expensive workloads
// the draw of queries then moves it more than the machine does). Answers are
// checked against the oracle after the last window, outside every metric.
func runMeasured(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{Correct: true}
	var reps []metrics
	var lat []float64
	for i := 0; i < cfg.sc.reps; i++ {
		last := i == cfg.sc.reps-1
		first := i * cfg.sc.queries / cfg.sc.reps
		m, l, err := measureOnce(ctx, cfg, first, last, res)
		if err != nil {
			return nil, err
		}
		reps = append(reps, m)
		lat = append(lat, l...)
		runtime.GC() // the closed system is garbage: the next set-up starts from a clean heap
	}
	res.Metrics = medianOf(reps)
	sort.Float64s(lat)
	res.Metrics.set("op_p50_ms", percentile(lat, 0.50), "ms")
	res.Metrics.set("op_p90_ms", percentile(lat, 0.90), "ms")
	cfg.info("%d repetitions, %d samples, %d beyond p90:", len(reps), len(lat), beyond(len(lat), 0.90))
	report(cfg, res.Metrics)
	return res, nil
}

// measureOnce is one repetition: set-up, window, and on the last one the
// oracle check. It returns the repetition's metrics and its latencies in ms,
// and adds the operations it attempted to res.
func measureOnce(ctx context.Context, cfg runConfig, first int, check bool, res *result) (_ metrics, _ []float64, err error) {
	seconds := cfg.seconds / float64(cfg.sc.reps)
	e, err := setup(ctx, cfg.w, cfg.sc, cfg.seed, setupOptions{seconds: seconds, clients: loadClients})
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	win, err := e.window(ctx, seconds, loadClients, first)
	if err != nil {
		return nil, nil, err
	}
	m := e.endToEnd(win)
	describe(cfg, win)
	cfg.info("  setup %.3fs  p50 %.4gms  p90 %.4gms  %.5g ops/s  cpu %.4gms/op  alloc %.5gkB/op  heap %.4gMB  stored %.5g",
		m["setup_s"].Value, m["op_p50_ms"].Value, m["op_p90_ms"].Value, m["ops_per_s"].Value, m["cpu_ms_per_op"].Value,
		m["alloc_kb_per_op"].Value, m["heap_inuse_mb"].Value, m["stored_bytes_per_user_byte"].Value)
	if check {
		err = e.check(ctx, cfg, win, res)
	}
	res.Attempted += win.attempted
	res.Failed += win.failed
	if win.firstErr != nil {
		cfg.info("FAILED OPERATION: %v", win.firstErr)
	}
	return m, win.latenciesMS(), err
}

// medianOf reports each metric as the median of its values over the
// repetitions.
func medianOf(reps []metrics) metrics {
	out := metrics{}
	for name, m := range reps[0] {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r[name].Value
		}
		out.set(name, median(vals), m.Unit)
	}
	return out
}

// check runs the oracle over the system as the window left it and adds the
// outcome to res.
func (e *env) check(ctx context.Context, cfg runConfig, win *windowResult, res *result) error {
	checked, wrong, err := e.oracleCheck(ctx, win.putsIssued)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for _, msg := range wrong {
		cfg.info("WRONG ANSWER: %s", msg)
	}
	cfg.info("oracle checked %d queries, %d wrong", checked, len(wrong))
	res.Correct = len(wrong) == 0
	res.Attempted += checked
	res.Failed += len(wrong)
	return nil
}

// describe prints the sample counts a window's percentiles rest on.
func describe(cfg runConfig, win *windowResult) {
	n := len(win.samples)
	var results int64
	for _, s := range win.samples {
		results += s.st.Results
	}
	cfg.info("window: %d queries and %d puts over %.3fs; %d beyond p50, %d beyond p90 (p90 supported: %v); %.4g results per query; %d failed",
		n, len(win.puts), win.wall.Seconds(), beyond(n, 0.50), beyond(n, 0.90), supported(n, 0.90), ratio(float64(results), float64(n)), win.failed)
}

// report prints metrics by name with their units.
func report(cfg runConfig, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg.info("  %-32s %14.6g %s", name, m[name].Value, m[name].Unit)
	}
}

// runTraced produces the per-layer metrics: an untraced window for the
// counters the program keeps itself, then the seam-by-seam walk. Both go one
// operation at a time, so the window is what the walk is compared with for
// the tracing overhead, and with nothing concurrent the plan and scan
// counters are a function of the seed.
func runTraced(ctx context.Context, cfg runConfig) (_ *result, err error) {
	tr := newTracer()
	var tb *timedBackend
	e, err := setup(ctx, cfg.w, cfg.sc, cfg.seed, setupOptions{
		seconds: cfg.seconds / 2,
		clients: 1,
		wrap: func(b server.Backend) server.Backend {
			tb = newTimedBackend(b, tr)
			return tb
		},
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	win, err := e.window(ctx, cfg.seconds/2, 1, 0)
	if err != nil {
		return nil, err
	}
	m := e.counterMetrics(win)
	describe(cfg, win)

	wk, err := newWalker(e, tr, tb)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := wk.close(); err == nil {
			err = cerr
		}
	}()
	if err := wk.run(ctx, time.Duration(cfg.seconds/walkFraction*float64(time.Second))); err != nil {
		return nil, err
	}
	// The untraced reference for the overhead is the window's median over
	// the same queries the walk reached.
	var same []float64
	for _, s := range win.samples {
		if s.idx%len(e.queries) < wk.ops {
			same = append(same, ms(s.lat))
		}
	}
	for name, v := range wk.traceMetrics(percentile(sortedCopy(same), 0.50)) {
		m[name] = v
	}
	lat := win.latenciesMS()
	if supported(len(lat), 0.99) {
		m.set("trass.op_p99_ms", percentile(lat, 0.99), "ms")
	} else {
		m.set("trass.op_p99_ms", 0, "ms") // too few samples to carry a p99
	}
	var shed float64
	if e.srv != nil {
		sz, err := e.clients[0].Statsz(ctx)
		if err != nil {
			return nil, err
		}
		shed = ratio(float64(sz.Shed), float64(sz.Shed+sz.Served))
	}
	m.set("server.shed_frac", shed, "ratio")
	report(cfg, m)
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut); err != nil {
			cfg.info("trace not written: %v", err)
		} else {
			cfg.info("%d spans of %d walked queries written to %s", len(tr.snapshot()), wk.ops, cfg.traceOut)
		}
	}
	res := &result{Correct: true, Attempted: win.attempted, Failed: win.failed, Metrics: m}
	if win.firstErr != nil {
		cfg.info("FAILED OPERATION: %v", win.firstErr)
	}
	return res, e.check(ctx, cfg, win, res)
}
