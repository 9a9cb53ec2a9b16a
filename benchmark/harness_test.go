package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	trass "repro"
	"repro/internal/gen"
	"repro/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestTenBeyondRule(t *testing.T) {
	// p90 of 100 samples sits at rank 90: exactly 10 beyond. 99 leaves 9.
	if got := beyond(100, 0.90); got != 10 {
		t.Errorf("beyond(100, 0.90) = %d, want 10", got)
	}
	if !supported(100, 0.90) || supported(99, 0.90) {
		t.Error("p90 needs at least 100 samples")
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Error("p99 needs at least 1000 samples")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestMixSchedule(t *testing.T) {
	// Three queries, then a put, with each kind numbered among its own.
	type op struct {
		read, put int
		isPut     bool
	}
	want := []op{{read: 0}, {read: 1}, {read: 2}, {put: 0, isPut: true}, {read: 3}, {read: 4}, {read: 5}, {put: 1, isPut: true}, {read: 6}}
	for i, w := range want {
		r, p, isPut := opAt(i, true)
		if got := (op{r, p, isPut}); got != w {
			t.Errorf("opAt(%d, ingest) = %+v, want %+v", i, got, w)
		}
		if r, _, isPut := opAt(i, false); r != i || isPut {
			t.Errorf("opAt(%d, read-only) = query %d, put %v", i, r, isPut)
		}
	}
}

func TestRunReportsMedianOfRepetitions(t *testing.T) {
	reps := []metrics{
		{"op_p50_ms": {Value: 3, Unit: "ms"}, "ops_per_s": {Value: 10, Unit: "1/s"}},
		{"op_p50_ms": {Value: 1, Unit: "ms"}, "ops_per_s": {Value: 30, Unit: "1/s"}},
		{"op_p50_ms": {Value: 2, Unit: "ms"}, "ops_per_s": {Value: 20, Unit: "1/s"}},
	}
	want := metrics{"op_p50_ms": {Value: 2, Unit: "ms"}, "ops_per_s": {Value: 20, Unit: "1/s"}}
	if got := medianOf(reps); !reflect.DeepEqual(got, want) {
		t.Errorf("medianOf = %v, want %v", got, want)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	dur := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	root := tr.add(spanDB, 0, noParent, at(0), dur(100))
	eng := tr.add(spanEngine, 0, root, at(200), dur(90)) // called after its parent returned
	tr.add(spanPrune, 0, eng, at(300), dur(10))
	st := tr.add(spanStore, 0, eng, at(320), dur(50))
	tr.add(spanCluster, 0, st, at(400), dur(60)) // slower alone than inside its parent
	self := selfTimes(tr.snapshot())
	want := []time.Duration{dur(10), dur(30), dur(10), dur(-10), dur(60)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	var sum time.Duration
	for _, s := range self {
		sum += s
	}
	if sum != dur(100) {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

func TestMemFS(t *testing.T) {
	m := newMemFS()
	if err := m.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Create("/a/b/x.tmp")
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g, _ := m.OpenAppend("/a/b/x.tmp")
	if _, err := g.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("/a/b/x.tmp", "/a/b/x"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("/a/b/x.tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("open of renamed-away file: %v", err)
	}
	r, err := m.Open("/a/b/x")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Size(); n != 11 {
		t.Errorf("size = %d, want 11", n)
	}
	buf := make([]byte, 5)
	if n, err := r.ReadAt(buf, 6); n != 5 || err != nil || string(buf) != "world" {
		t.Errorf("ReadAt = %d, %v, %q", n, err, buf)
	}
	if n, err := r.ReadAt(buf, 8); n != 3 || err != io.EOF {
		t.Errorf("short ReadAt = %d, %v; want 3, EOF", n, err)
	}
	all, err := io.ReadAll(r)
	if err != nil || string(all) != "hello world" {
		t.Errorf("ReadAll = %q, %v", all, err)
	}
	if names, _ := m.List("/a"); !reflect.DeepEqual(names, []string{"b"}) {
		t.Errorf("List(/a) = %v", names)
	}
	if names, _ := m.List("/a/b"); !reflect.DeepEqual(names, []string{"x"}) {
		t.Errorf("List(/a/b) = %v", names)
	}
	if _, err := m.List("/nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("List of a missing directory: %v", err)
	}
	m.copyTree("/a", "/c")
	if got := m.storedBytes(); got != 22 {
		t.Errorf("storedBytes after copy = %d, want 22", got)
	}
	// The handle opened before the removal keeps its file.
	if err := m.Remove("/a/b/x"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/a/b/x"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("second Remove: %v", err)
	}
	if n, err := r.ReadAt(buf, 0); n != 5 || err != nil {
		t.Errorf("ReadAt after Remove = %d, %v", n, err)
	}
	if err := m.RemoveAll("/c"); err != nil {
		t.Fatal(err)
	}
	if got := m.storedBytes(); got != 0 {
		t.Errorf("storedBytes after RemoveAll = %d", got)
	}
	c := m.counts()
	if c.WriteCalls != 2 || c.WriteBytes != 11 || c.Syncs != 2 || c.ReadBytes != 5+3+11+5 {
		t.Errorf("counts = %+v", c)
	}
	if d := m.counts().sub(c); d != (fsCounts{}) {
		t.Errorf("counts().sub(counts()) = %+v", d)
	}
}

// fakeBackend records which Backend methods were reached.
type fakeBackend struct{ called map[string]int }

func (f *fakeBackend) hit(name string) { f.called[name]++ }

func (f *fakeBackend) ThresholdSearchWindowContext(context.Context, *trass.Trajectory, float64, trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error) {
	f.hit("ThresholdSearchWindowContext")
	return nil, nil, nil
}
func (f *fakeBackend) ThresholdSearchWindowFunc(_ context.Context, _ *trass.Trajectory, _ float64, _ trass.TimeWindow, fn func(trass.Match) error) (*trass.QueryStats, error) {
	f.hit("ThresholdSearchWindowFunc")
	time.Sleep(2 * time.Millisecond)
	return nil, fn(trass.Match{ID: "m"})
}
func (f *fakeBackend) TopKSearchWindowContext(context.Context, *trass.Trajectory, int, trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error) {
	f.hit("TopKSearchWindowContext")
	return nil, nil, nil
}
func (f *fakeBackend) RangeSearchWindowContext(context.Context, trass.Rect, trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error) {
	f.hit("RangeSearchWindowContext")
	return nil, nil, nil
}
func (f *fakeBackend) RangeSearchWindowFunc(_ context.Context, _ trass.Rect, _ trass.TimeWindow, fn func(trass.Match) error) (*trass.QueryStats, error) {
	f.hit("RangeSearchWindowFunc")
	return nil, fn(trass.Match{ID: "m"})
}
func (f *fakeBackend) NearestSearchContext(context.Context, trass.Point, int) ([]trass.Match, *trass.QueryStats, error) {
	f.hit("NearestSearchContext")
	return nil, nil, nil
}
func (f *fakeBackend) Get(string) (*trass.Trajectory, error) { f.hit("Get"); return nil, nil }
func (f *fakeBackend) Count() int64                          { f.hit("Count"); return 7 }
func (f *fakeBackend) StorageStats() (trass.StorageStats, error) {
	f.hit("StorageStats")
	return trass.StorageStats{}, nil
}
func (f *fakeBackend) Close() error { f.hit("Close"); return nil }

func TestTimedBackendForwardsEveryCall(t *testing.T) {
	inner := &fakeBackend{called: map[string]int{}}
	tr := newTracer()
	var b server.Backend = newTimedBackend(inner, tr)
	ctx := context.Background()
	emitted := 0
	emit := func(trass.Match) error {
		emitted++
		time.Sleep(5 * time.Millisecond)
		return nil
	}

	// Disarmed: everything is forwarded, nothing is recorded.
	_, _, _ = b.ThresholdSearchWindowContext(ctx, nil, 0, trass.TimeWindow{})
	_, _, _ = b.TopKSearchWindowContext(ctx, nil, 1, trass.TimeWindow{})
	_, _, _ = b.RangeSearchWindowContext(ctx, trass.Rect{}, trass.TimeWindow{})
	_, _ = b.RangeSearchWindowFunc(ctx, trass.Rect{}, trass.TimeWindow{}, emit)
	_, _, _ = b.NearestSearchContext(ctx, trass.Point{}, 1)
	_, _ = b.Get("x")
	if b.Count() != 7 {
		t.Error("Count not forwarded")
	}
	_, _ = b.StorageStats()
	if len(tr.snapshot()) != 0 {
		t.Fatalf("disarmed backend recorded %d spans", len(tr.snapshot()))
	}

	// Armed: the span excludes the time spent in the emit callback.
	tb := b.(*timedBackend)
	tb.arm(3, noParent)
	if _, err := b.ThresholdSearchWindowFunc(ctx, nil, 0, trass.TimeWindow{}, emit); err != nil {
		t.Fatal(err)
	}
	last := tb.disarm()
	spans := tr.snapshot()
	if len(spans) != 1 || last != 0 || spans[0].Name != spanBackend || spans[0].Op != 3 {
		t.Fatalf("spans = %+v, last = %d", spans, last)
	}
	if d := spans[0].dur(); d < 2*time.Millisecond || d >= 5*time.Millisecond {
		t.Errorf("backend span = %v; want the 2ms inside the backend without the 5ms emit", d)
	}
	_ = b.Close()
	if emitted != 2 {
		t.Errorf("emit callbacks reached %d times, want 2", emitted)
	}
	bt := reflect.TypeOf((*server.Backend)(nil)).Elem()
	for i := 0; i < bt.NumMethod(); i++ {
		if inner.called[bt.Method(i).Name] == 0 {
			t.Errorf("Backend.%s never reached the wrapped backend", bt.Method(i).Name)
		}
	}
}

func TestCountingWriter(t *testing.T) {
	w := newCountingWriter()
	var rw http.ResponseWriter = w
	rw.Header().Set("Content-Type", "x")
	_, _ = rw.Write([]byte("abc"))
	_, _ = rw.Write([]byte("de"))
	rw.(http.Flusher).Flush()
	rw.WriteHeader(http.StatusTeapot) // too late, like net/http
	if w.status != http.StatusOK || w.bytes != 5 || w.writes != 2 || w.flushes != 1 || w.header.Get("Content-Type") != "x" {
		t.Errorf("writer = %+v", w)
	}
}

func TestOracleOnSmallStore(t *testing.T) {
	ctx := context.Background()
	sc := scale{n: 200, queries: 20, oracle: 20, reps: 1}
	for _, w := range workloads {
		if w.ingest {
			continue // same query as thr_selective; the run test below covers the puts
		}
		t.Run(w.name, func(t *testing.T) {
			e, err := setup(ctx, w, sc, 5, setupOptions{clients: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			checked, wrong, err := e.oracleCheck(ctx, 0)
			if err != nil || checked != 20 || len(wrong) != 0 {
				t.Fatalf("oracle: checked %d, wrong %v, err %v", checked, wrong, err)
			}
			// A wrong answer must be seen: drop one match, then alter one.
			o := newOracle(gen.TDrive(gen.TDriveOptions{Seed: 5, N: sc.n}))
			q := e.queries[0]
			a, err := embeddedOp(ctx, e.db, w.kind, q)
			if err != nil {
				t.Fatal(err)
			}
			if msg, _ := o.check(w.kind, q, a.matches); msg != "" {
				t.Fatalf("embedded answer rejected: %s", msg)
			}
			if msg, _ := o.check(w.kind, q, a.matches[1:]); msg == "" {
				t.Error("oracle accepted an answer with a match missing")
			}
			if w.kind != kindRange {
				bad := append([]trass.Match(nil), a.matches...)
				bad[0].Distance += 1e-9
				if msg, _ := o.check(w.kind, q, bad); msg == "" {
					t.Error("oracle accepted a wrong distance")
				}
			}
			if msg := sameAnswer(a.matches, a.matches[1:]); msg == "" {
				t.Error("sameAnswer accepted a missing match")
			}
		})
	}
}

// benchmarkJSON is the driver's view of the benchmark, kept at the root of
// the repository.
type benchmarkJSON struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestRunsMatchBenchmarkJSON runs every workload at -quick scale, measured
// and traced, and holds the output against BENCHMARK.json: same workloads,
// and exactly the declared metrics with the declared units.
func TestRunsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	if len(bj.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(endToEndSpecs))
	}
	for i, spec := range endToEndSpecs {
		got := bj.EndToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[spec.higher]
		if got.Name != spec.name || got.Unit != spec.unit || got.Better != better || got.Bound != spec.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, got, spec)
		}
	}
	units := [2]map[string]string{{}, {}}
	for _, m := range bj.EndToEnd {
		units[0][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		units[1][m.Name] = m.Unit
	}
	ctx := context.Background()
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, bj.Workloads[i].Name, w.name)
		}
		for traced, want := range units {
			res, err := runOne(ctx, runConfig{w: w, sc: quickScale, seed: 3, seconds: 0.5, traced: traced == 1, info: t.Logf})
			if err != nil {
				t.Fatalf("%s traced=%d: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%d: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				if want[name] != m.Unit {
					t.Errorf("%s traced=%d: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, want[name])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%d: metric %s is %v", w.name, traced, name, m.Value)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%d: metric %s declared in BENCHMARK.json but not reported", w.name, traced, name)
				}
			}
			if traced == 1 && res.Metrics["kv.pinned_snapshots_end"].Value != 0 {
				t.Errorf("%s: %v snapshots still pinned", w.name, res.Metrics["kv.pinned_snapshots_end"].Value)
			}
		}
	}
}
