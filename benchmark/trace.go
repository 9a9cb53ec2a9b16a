package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	trass "repro"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/vfs"
	"repro/internal/xzstar"
)

// Span names, one per seam the walk crosses.
const (
	spanClient  = "client.loopback"
	spanHandler = "server.handler"
	spanBackend = "server.backend" // a DB call made by the handler, emit callbacks excluded
	spanDB      = "trass.db"
	spanEngine  = "query.engine"
	spanPrune   = "xzstar.prune"
	spanStore   = "store.scan"
	spanCluster = "cluster.scan"
	spanDecode  = "traj.decode"
	spanWithin  = "dist.within"
	spanFull    = "dist.full"
)

const (
	noParent     = -1
	seamDir      = "/trassbench-seams" // the walker's copy of the data directory
	minWalkOps   = 8                   // walked however slow the machine
	walkFraction = 3                   // the walk gets 1/walkFraction of the run's seconds
)

// layerOf attributes a span's self time to a module. The backend span is a
// trass.DB call, so what it does not spend in the engine is trass's.
var layerOf = map[string]string{
	spanClient: "client", spanHandler: "server", spanBackend: "trass", spanDB: "trass",
	spanEngine: "query", spanPrune: "xzstar", spanStore: "store", spanCluster: "cluster",
	spanDecode: "traj", spanWithin: "dist", spanFull: "dist",
}

// span is one timed call into a layer. Spans of one walked query share Op.
// Parent is the span this one is accounted under, or -1.
//
// The seams of one query are called one after another on the same data, not
// inside one another (only the handler really contains its backend call), so
// a child's interval need not lie inside its parent's: the parent link says
// "this work is part of what the parent did when it ran the same query".
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, op, parent int, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: s, End: s + int64(d)})
	return id
}

// begin opens a span that end closes. A span is always recorded after its
// parent, so one pass over the spans in id order sees parents first.
func (t *tracer) begin(name string, op, parent int) int {
	return t.add(name, op, parent, time.Now(), 0)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn as a span.
func (t *tracer) timed(name string, op, parent int, fn func() error) (int, error) {
	id := t.begin(name, op, parent)
	err := fn()
	t.end(id)
	return id, err
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus its children's
// durations. It may be negative: a seam called alone can run longer than the
// same work did inside its parent, where it overlapped with other stages.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// write stores the spans as JSON through the vfs seam.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return writeFile(path, buf)
}

func writeFile(path string, data []byte) error {
	if err := vfs.Default.MkdirAll(filepath.Dir(path)); err != nil {
		return err
	}
	f, err := vfs.Default.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// walker drives sampled queries through every seam in turn.
type walker struct {
	e  *env
	tr *tracer
	tb *timedBackend // nil when the run has no server

	// The lower seams run on the walker's own stack, opened over a copy of
	// the settled data directory: trass.DB does not expose its store.
	st  *store.Store
	eng *query.Engine

	ops      int
	roots    []int // per op, the span of the workload's own timed operation
	prunes   []pruneCall
	handlers int
	respKB   float64
	flushes  int

	decodeRows, withinPairs, fullPairs int
}

type pruneCall struct {
	xq     *xzstar.Query
	eps    float64
	window *geo.Rect
}

// newWalker settles the database (flush and compact, so nothing is in
// flight), copies its directory and opens a store and an engine on the copy.
func newWalker(e *env, tr *tracer, tb *timedBackend) (*walker, error) {
	if err := e.db.Flush(); err != nil {
		return nil, err
	}
	if err := e.db.Compact(); err != nil {
		return nil, err
	}
	e.fs.copyTree(dataDir, seamDir)
	st, err := store.Open(store.Config{Dir: seamDir, Shards: shards, FS: e.fs})
	if err != nil {
		return nil, err
	}
	return &walker{e: e, tr: tr, tb: tb, st: st, eng: query.New(st, dist.Frechet)}, nil
}

func (w *walker) close() error { return w.st.Close() }

// run walks queries in order until the time is up.
func (w *walker) run(ctx context.Context, budget time.Duration) error {
	start := time.Now()
	for ctx.Err() == nil && w.ops < len(w.e.queries) && (w.ops < minWalkOps || time.Since(start) < budget) {
		if err := w.walk(ctx, w.ops, w.e.queries[w.ops]); err != nil {
			return fmt.Errorf("walk of query %d: %w", w.ops, err)
		}
		w.ops++
	}
	return ctx.Err()
}

// walk takes one query through the seams, top down.
func (w *walker) walk(ctx context.Context, op int, q *trass.Trajectory) error {
	kind := w.e.w.kind
	tr := w.tr
	dbSpan, root := noParent, noParent

	if w.tb != nil {
		req := wireRequest(kind, q)
		// Loopback: client, socket, server, database.
		client, err := tr.timed(spanClient, op, noParent, func() error {
			_, err := w.e.servedOp(ctx, w.e.clients[0], req, false)
			return err
		})
		if err != nil {
			return err
		}
		// The same request straight into the handler, no socket.
		req.Stream = true
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		hreq := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
		rw := newCountingWriter()
		handler := tr.begin(spanHandler, op, client)
		w.tb.arm(op, handler)
		w.e.srv.Handler().ServeHTTP(rw, hreq)
		backend := w.tb.disarm()
		tr.end(handler)
		if rw.status != http.StatusOK || backend < 0 {
			return fmt.Errorf("in-process handler: status %d", rw.status)
		}
		w.handlers++
		w.respKB += float64(rw.bytes) / 1024
		w.flushes += rw.flushes
		if w.e.w.served {
			dbSpan, root = backend, client
		}
	}

	// The embedded call. On a served workload the handler's backend span is
	// this call already; it is made again only for its answer.
	start := time.Now()
	a, err := embeddedOp(ctx, w.e.db, kind, q)
	if err != nil {
		return err
	}
	if !w.e.w.served {
		dbSpan = tr.add(spanDB, op, noParent, start, time.Since(start))
		root = dbSpan
	}
	matches := a.matches
	w.roots = append(w.roots, root)

	// The engine alone, on the walker's stack.
	var est *query.Stats
	engine, err := tr.timed(spanEngine, op, dbSpan, func() error {
		var err error
		switch kind {
		case kindThreshold:
			_, est, err = w.eng.ThresholdContext(ctx, q, gen.DegreesToNorm(epsDeg))
		case kindTopK:
			_, est, err = w.eng.TopKContext(ctx, q, topK)
		case kindRange:
			_, est, err = w.eng.RangeContext(ctx, rangeWindow(q))
		}
		return err
	})
	if err != nil {
		return err
	}

	// Planning alone. Top-k plans best-first inside the engine; the
	// threshold plan at the kth distance covers the same index spaces.
	pc := pruneCall{eps: gen.DegreesToNorm(epsDeg)}
	switch kind {
	case kindTopK:
		pc.eps = matches[len(matches)-1].Distance
	case kindRange:
		r := rangeWindow(q)
		pc.window = &r
	}
	if pc.window == nil {
		f := traj.ComputeFeatures(q, w.st.Config().DPTolerance)
		pc.xq = xzstar.NewQuery(q.Points, f.Boxes)
	}
	w.prunes = append(w.prunes, pc)
	prune := tr.begin(spanPrune, op, engine)
	ranges := pc.plan(w.st.Index())
	tr.end(prune)

	// The store's scan of those ranges with no filter pushed down, and under
	// it the cluster's scan of the same ranges as row-key ranges.
	var rows []kv.Entry
	storeSpan, err := tr.timed(spanStore, op, engine, func() error {
		snap, err := w.st.Snapshot()
		if err != nil {
			return err
		}
		defer snap.Close()
		_, err = snap.ScanRangesStream(ctx, ranges, nil, 0, store.StreamOptions{}, func(b []kv.Entry) error {
			rows = append(rows, b...)
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	if _, err := tr.timed(spanCluster, op, storeSpan, func() error {
		snap, err := w.st.Cluster().Snapshot()
		if err != nil {
			return err
		}
		defer snap.Close()
		_, err = snap.ScanStream(ctx, cluster.StreamRequest{ScanRequest: cluster.ScanRequest{Ranges: keyRanges(ranges)}},
			func(cluster.ScanBatch) error { return nil })
		return err
	}); err != nil {
		return err
	}

	return w.replay(op, engine, q, pc.eps, rows, matches, est)
}

func (pc pruneCall) plan(ix *xzstar.Index) []xzstar.ValueRange {
	if pc.window != nil {
		r, _ := ix.RangeCover(*pc.window, 0)
		return r
	}
	r, _ := ix.GlobalPrune(pc.xq, pc.eps, 0)
	return r
}

// keyRanges maps index-value ranges onto per-shard row-key ranges, the way
// the store does: shard byte, then the value big-endian.
func keyRanges(ranges []xzstar.ValueRange) []cluster.KeyRange {
	key := func(shard byte, v int64) []byte {
		k := make([]byte, 9)
		k[0] = shard
		binary.BigEndian.PutUint64(k[1:], uint64(v))
		return k
	}
	out := make([]cluster.KeyRange, 0, len(ranges)*shards)
	for s := 0; s < shards; s++ {
		for _, r := range ranges {
			out = append(out, cluster.KeyRange{Start: key(byte(s), r.Lo), End: key(byte(s), r.Hi)})
		}
	}
	return out
}

// rowID reads the trajectory id off a data row key: shard, 8 value bytes, a
// zero, then the id.
func rowID(key []byte) string {
	if len(key) < 10 {
		return ""
	}
	return string(key[10:])
}

// replay re-does the engine's client-side work with the kernels alone, in
// one goroutine: decode as many rows as the engine was shipped, then the
// refine loop over as many as it refined — the early-abandoning kernel
// against the bound, the full kernel on what passes, and for top-k a bound
// that tightens to the kth best distance as results arrive.
func (w *walker) replay(op, parent int, q *trass.Trajectory, eps float64, rows []kv.Entry, matches []trass.Match, est *query.Stats) error {
	inAnswer := make(map[string]bool, len(matches))
	for _, m := range matches {
		inAnswer[m.ID] = true
	}
	nDecode, nRefine := int(est.Retrieved), est.Refined
	if w.e.w.kind == kindRange {
		nRefine = 0 // a range answer carries no distance
	}
	subset, err := shippedLike(q, rows, inAnswer, nDecode)
	if err != nil {
		return err
	}
	nRefine = min(nRefine, len(subset))

	recs := make([]*traj.Record, len(subset))
	if _, err := w.tr.timed(spanDecode, op, parent, func() error {
		for i, r := range subset {
			rec, err := store.DecodeRow(r.Value)
			if err != nil {
				return err
			}
			recs[i] = rec
		}
		return nil
	}); err != nil {
		return err
	}

	within, full := dist.WithinFor(dist.Frechet), dist.For(dist.Frechet)
	bound := eps
	best := &maxHeap{}
	if w.e.w.kind == kindTopK {
		bound = math.Inf(1)
	}
	start := time.Now()
	var withinT, fullT time.Duration
	nFull := 0
	for _, rec := range recs[:nRefine] {
		t0 := time.Now()
		ok := math.IsInf(bound, 1) || within(q.Points, rec.Points, bound)
		t1 := time.Now()
		withinT += t1.Sub(t0)
		if !ok {
			continue
		}
		d := full(q.Points, rec.Points)
		fullT += time.Since(t1)
		nFull++
		if w.e.w.kind == kindTopK {
			bound = best.offer(d, topK)
		}
	}
	// The two kernels alternate row by row; each gets one span carrying its
	// summed time.
	w.tr.add(spanWithin, op, parent, start, withinT)
	w.tr.add(spanFull, op, parent, start.Add(withinT), fullT)
	w.decodeRows += len(recs)
	w.withinPairs += nRefine
	w.fullPairs += nFull
	return nil
}

// shippedLike picks, from an unfiltered scan's rows, n rows that stand in for
// the ones the engine was shipped: which rows the pushed-down filter let
// through is not visible from outside, but it keeps the near ones, so the
// stand-ins are the answer's own rows plus the other rows whose endpoints lie
// nearest the query's (the filter's first test). Scan order is kept.
func shippedLike(q *trass.Trajectory, rows []kv.Entry, inAnswer map[string]bool, n int) ([]kv.Entry, error) {
	type other struct {
		i   int
		gap float64
	}
	keep := make([]bool, len(rows))
	var others []other
	q0, qn := q.Points[0], q.Points[len(q.Points)-1]
	for i, r := range rows {
		if inAnswer[rowID(r.Key)] {
			keep[i] = true
			n--
			continue
		}
		rec, err := store.DecodeRow(r.Value)
		if err != nil {
			return nil, err
		}
		others = append(others, other{i, max(q0.Dist(rec.Points[0]), qn.Dist(rec.Points[len(rec.Points)-1]))})
	}
	sort.Slice(others, func(a, b int) bool { return others[a].gap < others[b].gap })
	for _, o := range others[:max(0, min(n, len(others)))] {
		keep[o.i] = true
	}
	var subset []kv.Entry
	for i, r := range rows {
		if keep[i] {
			subset = append(subset, r)
		}
	}
	return subset, nil
}

// pruneAllocKB replays every walked plan in one tight loop with nothing else
// running and returns the heap bytes allocated per call.
func (w *walker) pruneAllocKB() float64 {
	ix := w.st.Index()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, pc := range w.prunes {
		_ = pc.plan(ix)
	}
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, float64(len(w.prunes)))
}

// subtrees marks every span that is a top span or has one among its
// ancestors. Spans are in id order, parents first.
func subtrees(spans []span, top func(span) bool) []bool {
	in := make([]bool, len(spans))
	for _, s := range spans {
		in[s.ID] = top(s) || (s.Parent >= 0 && in[s.Parent])
	}
	return in
}

// traceMetrics turns the spans into the traced per-layer metrics.
func (w *walker) traceMetrics(untracedP50 float64) metrics {
	m := metrics{}
	spans := w.tr.snapshot()
	self := selfTimes(spans)

	byName := map[string][]float64{}
	total := map[string]time.Duration{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		total[s.Name] += s.dur()
	}
	p50 := func(name string) float64 { return orZero(percentile(sortedCopy(byName[name]), 0.50)) }

	// Per op, a layer's self time is the sum over its spans in the tree of
	// the workload's own operation; per layer, the median over ops. On an
	// embedded workload that also walks the serving seams, those form a
	// second tree under the client span: client and server come from it,
	// and stay out of the sum.
	isRoot := make(map[int]bool, len(w.roots))
	for _, r := range w.roots {
		isRoot[r] = true
	}
	inRoot := subtrees(spans, func(s span) bool { return isRoot[s.ID] })
	inServed := subtrees(spans, func(s span) bool { return s.Name == spanClient })
	serving := map[string]bool{"client": true, "server": true}
	layerSelf := map[string]map[int]float64{}
	for _, s := range spans {
		l := layerOf[s.Name]
		if serving[l] && !inServed[s.ID] || !serving[l] && !inRoot[s.ID] {
			continue
		}
		if layerSelf[l] == nil {
			layerSelf[l] = map[int]float64{}
		}
		layerSelf[l][s.Op] += ms(self[s.ID])
	}
	var selfSum float64
	layerP50 := map[string]float64{}
	for l, perOp := range layerSelf {
		vals := make([]float64, 0, len(perOp))
		for _, v := range perOp {
			vals = append(vals, v)
		}
		layerP50[l] = median(vals)
		if layerP50[l] > 0 && (!serving[l] || w.e.w.served) {
			selfSum += layerP50[l]
		}
	}
	var rootMS []float64
	for _, r := range w.roots {
		rootMS = append(rootMS, ms(spans[r].dur()))
	}
	rootP50 := percentile(sortedCopy(rootMS), 0.50)

	ops := float64(w.ops)
	m.set("xzstar.prune_ms", p50(spanPrune), "ms")
	m.set("xzstar.alloc_kb_per_call", w.pruneAllocKB(), "kB")
	m.set("store.scan_unfiltered_ms", p50(spanStore), "ms")
	m.set("cluster.scan_ms", p50(spanCluster), "ms")
	m.set("traj.decode_us_per_row", ratio(us(total[spanDecode]), float64(w.decodeRows)), "us")
	m.set("dist.within_us_per_pair", ratio(us(total[spanWithin]), float64(w.withinPairs)), "us")
	m.set("dist.full_us_per_pair", ratio(us(total[spanFull]), float64(w.fullPairs)), "us")
	m.set("query.engine_ms", p50(spanEngine), "ms")
	dbName := spanDB
	if w.e.w.served {
		dbName = spanBackend
	}
	m.set("trass.db_ms", p50(dbName), "ms")
	m.set("server.backend_ms", p50(spanBackend), "ms")
	m.set("server.handler_ms", p50(spanHandler), "ms")
	m.set("server.resp_kb_per_op", ratio(w.respKB, float64(w.handlers)), "kB")
	m.set("server.flushes_per_op", ratio(float64(w.flushes), float64(w.handlers)), "count")
	m.set("client.loopback_ms", p50(spanClient), "ms")
	m.set("trace.ops", ops, "count")
	m.set("trace.op_p50_ms", rootP50, "ms")
	m.set("trace.self_sum_frac", ratio(selfSum, rootP50), "ratio")
	m.set("trace.overhead_frac", ratio(rootP50, untracedP50)-1, "ratio")
	for _, l := range []string{"xzstar", "cluster", "store", "traj", "dist", "query", "trass", "server", "client"} {
		m.set(l+".self_ms", layerP50[l], "ms")
	}
	return m
}
