package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"time"

	trass "repro"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vfs"
)

// queryKind is the query a workload's timed operation issues.
type queryKind int

const (
	kindThreshold queryKind = iota
	kindTopK
	kindRange
)

// workload is one traffic mix. Every workload runs on the same dataset (the
// T-Drive-like generator at scale.n), so a number on one is comparable with
// the same number on another: served minus embedded is the serving layer.
type workload struct {
	name string
	why  string
	kind queryKind
	// served sends the timed operation through an in-process server on a
	// loopback listener with the wire client; otherwise it calls the DB.
	served bool
	// ingest makes every mixPeriod-th operation a DB.Put of a new trajectory;
	// the timed operation is still the query.
	ingest bool
	// serveSeams adds the handler and loopback seams to the traced walk even
	// though the timed operation is embedded (the embedded-vs-served gap).
	serveSeams bool
	// warmOps is how many queries the untimed warm-up pass runs after the
	// warm-up scan (capped at the query set): enough to open the connections
	// and let the heap grow to its working size. A whole pass of the
	// expensive workloads would cost more than the window.
	warmOps int
}

var workloads = []workload{
	{
		name: "thr_selective", kind: kindThreshold, serveSeams: true, warmOps: 512,
		why: "prune + 8-region scan fan-out dominate and ~1 candidate is refined: xzstar/store/cluster/kv changes show, dist/traj/server changes must not",
	},
	{
		name: "topk_refine", kind: kindTopK, warmOps: 16,
		why: "hundreds of candidates are decoded and run through the Frechet kernel to return k: dist/traj/query-refine carry the CPU, pruning almost none",
	},
	{
		name: "served_range_points", kind: kindRange, served: true, warmOps: 16,
		why: "NDJSON encoding, a flush per line and client decode of ~230 matches with points (~1 MB) dominate: server/client changes show here only",
	},
	{
		name: "ingest_beside_query", kind: kindThreshold, ingest: true, warmOps: 512,
		why: "every 4th operation is a Put: each query snapshot freezes the memtable, so flush/compaction churn and write amplification show here only",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Query parameters, in the paper's units (longitude degrees).
const (
	epsDeg       = 0.005 // threshold queries
	topK         = 50    // top-k queries
	rangeHalfDeg = 0.008 // range window half-side around the query's mid-point
	shards       = 8
	dataDir      = "/trassbench"
)

// loadClients is how many closed-loop clients (connections, when served)
// generate the measured load: one per core of the 2-core boxes this runs on,
// and never more, so both cores stay busy and nothing queues for a core that
// the program's own goroutines did not put there. With one client a core
// idles between the fan-out's bursts, and on a shared host the time it takes
// to get an idle core back is the host's: the one-client workloads were the
// ones whose run-to-run spread the driver refused.
const loadClients = 2

// mixPeriod makes every mixPeriod-th operation of an ingest workload a Put:
// three queries to one write, from the same closed-loop clients. A writer on
// its own schedule beside the readers is one thread more than there are
// cores, and how the three were interleaved was the scheduler's choice.
const mixPeriod = 4

// maxOpsPerSecond sizes the ingest schedule: more operations a second than
// any machine this runs on completes, so the schedule outlasts the window.
const maxOpsPerSecond = 8000

// scale sizes a run. Only fullScale numbers are comparable with anything.
type scale struct {
	n       int // stored trajectories
	queries int // distinct queries, cycled in order
	maxOps  int // cap on a window's operations (0: the window is bounded by time only)
	oracle  int // queries checked against the linear-scan oracle
	reps    int // set-up + window repetitions per measured run (see runMeasured)
}

var (
	fullScale  = scale{n: 100000, queries: 2048, oracle: 16, reps: 3}
	quickScale = scale{n: 2000, queries: 64, maxOps: 200, oracle: 8, reps: 1}
)

// withFS is the trass.Option that puts the store on fsys. trass exports no
// such option and Option's second parameter type is unexported, so a plain
// function literal cannot have the type from outside the package;
// reflect.MakeFunc can. Everything else about the database is trass.Open's
// default, which is the point: the measured run is the public API.
func withFS(fsys vfs.FS) trass.Option {
	typ := reflect.TypeOf(trass.WithShards(shards))
	fn := reflect.MakeFunc(typ, func(args []reflect.Value) []reflect.Value {
		args[0].Interface().(*store.Config).FS = fsys
		return nil
	})
	return fn.Interface().(trass.Option)
}

// env is one set-up system under test.
type env struct {
	w    workload
	sc   scale
	seed int64

	fs      *memFS
	db      *trass.DB
	srv     *server.Server // nil unless served or serveSeams in a traced run
	srvDone chan error     // Serve's return value
	clients []*server.Client

	queries []*trass.Trajectory
	writes  []*trass.Trajectory // ingest only: the trajectories the puts take in order
	// userBytes is 16 B per point bulk-loaded during set-up.
	userBytes int64
	bulkLoad  time.Duration // PutBatch alone
	setupTime time.Duration // generate .. end of warm-up
}

// setupOptions vary set-up between the measured and the traced run.
type setupOptions struct {
	seconds float64 // sizes the ingest schedule
	clients int     // connections to open when served
	// wrap, when set, interposes on the server.Backend seam and forces a
	// server even for embedded workloads with serveSeams.
	wrap func(server.Backend) server.Backend
}

// setup builds the system: generate, Open, PutBatch, Flush, Compact, start
// the server if the workload needs one, and warm up untimed: one scan of the
// whole store, so the block caches hold every block (the stored data fits
// them; a window that starts half-warm pays for misses depending on where it
// starts), then a pass of queries so connections are open and the heap has
// grown to its working size. The generated dataset is garbage by the time
// setup returns; only the sampled queries (and the puts' trajectories) are
// kept.
func setup(ctx context.Context, w workload, sc scale, seed int64, opt setupOptions) (_ *env, err error) {
	t0 := time.Now()
	e := &env{w: w, sc: sc, seed: seed, fs: newMemFS()}
	data := gen.TDrive(gen.TDriveOptions{Seed: seed, N: sc.n})
	for _, t := range data {
		e.userBytes += 16 * int64(len(t.Points))
	}
	e.queries = gen.Queries(data, seed+7, sc.queries)
	if w.ingest {
		e.writes = putTrajectories(seed, int(opt.seconds*maxOpsPerSecond)/mixPeriod+1)
	}

	e.db, err = trass.Open(dataDir, trass.WithShards(shards), withFS(e.fs))
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = e.close()
		}
	}()
	tb := time.Now()
	if err := e.db.PutBatch(data); err != nil {
		return nil, err
	}
	e.bulkLoad = time.Since(tb)
	if err := e.db.Flush(); err != nil {
		return nil, err
	}
	if err := e.db.Compact(); err != nil {
		return nil, err
	}

	if w.served || (opt.wrap != nil && w.serveSeams) {
		var backend server.Backend = e.db
		if opt.wrap != nil {
			backend = opt.wrap(backend)
		}
		if err := e.serve(backend, opt.clients); err != nil {
			return nil, err
		}
	}
	if _, err := e.db.RangeSearchFunc(ctx, trass.Rect{Max: geo.Point{X: 1, Y: 1}}, func(trass.Match) error { return nil }); err != nil {
		return nil, fmt.Errorf("warm-up scan: %w", err)
	}
	for i, q := range e.queries[:min(w.warmOps, len(e.queries))] {
		if _, err := e.op(ctx, i%max(len(e.clients), 1), q, false); err != nil {
			return nil, fmt.Errorf("warm-up query %s: %w", q.ID, err)
		}
	}
	e.setupTime = time.Since(t0)
	return e, nil
}

// putTrajectories are the first n trajectories an ingest window puts, in
// order: the same generator on another seed.
func putTrajectories(seed int64, n int) []*trass.Trajectory {
	if n == 0 {
		return nil // the generator reads N: 0 as its default size
	}
	ts := gen.TDrive(gen.TDriveOptions{Seed: seed + 13, N: n})
	for i, t := range ts {
		t.ID = fmt.Sprintf("in%06d", i) // the generator's ids would overwrite the bulk load's
	}
	return ts
}

// serve starts a server over backend on a loopback listener, one wire client per
// connection: each client owns a transport that keeps exactly one
// connection alive, so "2 clients" is 2 sockets.
func (e *env) serve(backend server.Backend, clients int) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(backend, server.Config{})
	e.srvDone = make(chan error, 1)
	go func() { e.srvDone <- e.srv.Serve(lis) }()
	for i := 0; i < clients; i++ {
		c := server.NewClient(lis.Addr().String())
		c.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
		e.clients = append(e.clients, c)
	}
	return nil
}

// close stops the server (which closes the database it owns) or closes the
// database, and waits for the accept loop to return.
func (e *env) close() error {
	if e.srv == nil {
		return e.db.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.srvDone; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	for _, c := range e.clients {
		c.HTTP.CloseIdleConnections()
	}
	return err
}

// opStats is what one operation reports about itself, from QueryStats or,
// when served, from the stream footer's copy of it.
type opStats struct {
	Ranges, RowsScanned, Shipped, BytesShipped, RPCs, Retries, Refined, Results int64
	Prune, Scan, Refine, RefineCPU, Stall                                       time.Duration
}

func (a *opStats) add(b opStats) {
	a.Ranges += b.Ranges
	a.RowsScanned += b.RowsScanned
	a.Shipped += b.Shipped
	a.BytesShipped += b.BytesShipped
	a.RPCs += b.RPCs
	a.Retries += b.Retries
	a.Refined += b.Refined
	a.Results += b.Results
	a.Prune += b.Prune
	a.Scan += b.Scan
	a.Refine += b.Refine
	a.RefineCPU += b.RefineCPU
	a.Stall += b.Stall
}

func fromQueryStats(st *trass.QueryStats) opStats {
	return opStats{
		Ranges: int64(st.Ranges), RowsScanned: st.RowsScanned, Shipped: st.Retrieved,
		BytesShipped: st.BytesShipped, RPCs: st.RPCs, Retries: st.Retries,
		Refined: int64(st.Refined), Results: int64(st.Results),
		Prune: st.PruneTime, Scan: st.ScanTime, Refine: st.RefineTime,
		RefineCPU: st.RefineCPUTime, Stall: st.StreamStallTime,
	}
}

func fromWireStats(st *server.WireStats) opStats {
	return opStats{
		Ranges: int64(st.Ranges), RowsScanned: st.RowsScanned, Shipped: st.Retrieved,
		BytesShipped: st.BytesShipped, RPCs: st.RPCs, Retries: st.Retries,
		Refined: int64(st.Refined), Results: int64(st.Results),
		Prune: time.Duration(st.PruneNS), Scan: time.Duration(st.ScanNS),
		Refine: time.Duration(st.RefineNS), RefineCPU: time.Duration(st.RefineCPUNS),
		Stall: time.Duration(st.StreamStallNS),
	}
}

// answer is one operation's outcome. Matches are kept only when the caller
// asked for them (the oracle check); the window keeps counts alone.
type answer struct {
	st      opStats
	matches []trass.Match
}

// rangeWindow is the range query a trajectory stands for: a square around
// its mid-point.
func rangeWindow(q *trass.Trajectory) trass.Rect {
	mid := q.Points[len(q.Points)/2]
	h := gen.DegreesToNorm(rangeHalfDeg)
	return trass.Rect{Min: geo.Point{X: mid.X - h, Y: mid.Y - h}, Max: geo.Point{X: mid.X + h, Y: mid.Y + h}}
}

// wireRequest is the workload's query as the wire protocol carries it.
func wireRequest(kind queryKind, q *trass.Trajectory) server.QueryRequest {
	switch kind {
	case kindRange:
		r := rangeWindow(q)
		return server.QueryRequest{Kind: server.KindRange, Rect: &[4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y}, IncludePoints: true}
	case kindTopK:
		return server.QueryRequest{Kind: server.KindTopK, Points: wirePoints(q), K: topK}
	default:
		return server.QueryRequest{Kind: server.KindThreshold, Points: wirePoints(q), Eps: gen.DegreesToNorm(epsDeg)}
	}
}

func wirePoints(q *trass.Trajectory) [][2]float64 {
	pts := make([][2]float64, len(q.Points))
	for i, p := range q.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	return pts
}

// op runs the workload's timed operation for query q on the given client.
// A result the workload's construction rules out — queries are stored
// trajectories, so every answer contains at least the query itself, and a
// top-k answer has exactly k entries — is an error.
func (e *env) op(ctx context.Context, client int, q *trass.Trajectory, keep bool) (answer, error) {
	var a answer
	var err error
	if e.w.served {
		a, err = e.servedOp(ctx, e.clients[client], wireRequest(e.w.kind, q), keep)
	} else {
		a, err = embeddedOp(ctx, e.db, e.w.kind, q)
	}
	if err != nil {
		return answer{}, err
	}
	if a.st.Results == 0 || (e.w.kind == kindTopK && a.st.Results != topK) {
		return answer{}, fmt.Errorf("query %s: %d results", q.ID, a.st.Results)
	}
	if !keep {
		a.matches = nil
	}
	return a, nil
}

func embeddedOp(ctx context.Context, db *trass.DB, kind queryKind, q *trass.Trajectory) (answer, error) {
	var ms []trass.Match
	var st *trass.QueryStats
	var err error
	switch kind {
	case kindThreshold:
		ms, st, err = db.ThresholdSearchContext(ctx, q, gen.DegreesToNorm(epsDeg))
	case kindTopK:
		ms, st, err = db.TopKSearchContext(ctx, q, topK)
	case kindRange:
		ms, st, err = db.RangeSearchContext(ctx, rangeWindow(q))
	}
	if err != nil {
		return answer{}, err
	}
	return answer{st: fromQueryStats(st), matches: ms}, nil
}

// servedOp streams one query over the wire. A 429 is an error like any
// other: a refused request missed every latency limit.
func (e *env) servedOp(ctx context.Context, c *server.Client, req server.QueryRequest, keep bool) (answer, error) {
	var a answer
	var n int64
	st, err := c.QueryStream(ctx, req, func(m server.WireMatch) error {
		n++
		if keep {
			pts := make([]trass.Point, len(m.Points))
			for i, p := range m.Points {
				pts[i] = trass.Point{X: p[0], Y: p[1]}
			}
			a.matches = append(a.matches, trass.Match{ID: m.ID, Distance: m.Distance, Points: pts})
		}
		return nil
	})
	if err != nil {
		return answer{}, err
	}
	if st == nil {
		return answer{}, fmt.Errorf("stream footer carried no stats")
	}
	a.st = fromWireStats(st)
	if a.st.Results != n {
		return answer{}, fmt.Errorf("footer reports %d results, stream carried %d", a.st.Results, n)
	}
	return a, nil
}
