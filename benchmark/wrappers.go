package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	trass "repro"
	"repro/internal/server"
)

// timedBackend interposes on the server.Backend seam: it forwards every call
// to the real database and, while the tracer has armed it, records how long
// each query spent inside the database. For the streaming variants the time
// spent in the emit callback — NDJSON encoding and the per-line flush — is
// the server's, not the database's, and is taken out of the span.
type timedBackend struct {
	server.Backend
	tr *tracer

	mu     sync.Mutex
	armed  bool
	op     int
	parent int
	last   int // id of the span the last armed call recorded, -1 if none
}

func newTimedBackend(inner server.Backend, tr *tracer) *timedBackend {
	return &timedBackend{Backend: inner, tr: tr, last: -1}
}

// arm makes the next query calls record spans under parent; disarm stops
// recording. The walk drives one request at a time, so one slot suffices.
func (b *timedBackend) arm(op, parent int) {
	b.mu.Lock()
	b.armed, b.op, b.parent, b.last = true, op, parent, -1
	b.mu.Unlock()
}

func (b *timedBackend) disarm() (last int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = false
	return b.last
}

// record adds the span of a call that started at start and spent emit of
// its time in the caller's callback.
func (b *timedBackend) record(start time.Time, emit time.Duration) {
	total := time.Since(start)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.armed {
		b.last = b.tr.add(spanBackend, b.op, b.parent, start, total-emit)
	}
}

// timedEmit wraps a streaming callback so its time can be subtracted. The
// engine calls emit from one goroutine (the merge loop), so a plain
// accumulator is enough.
func timedEmit(fn func(trass.Match) error, spent *time.Duration) func(trass.Match) error {
	return func(m trass.Match) error {
		t0 := time.Now()
		err := fn(m)
		*spent += time.Since(t0)
		return err
	}
}

func (b *timedBackend) ThresholdSearchWindowContext(ctx context.Context, q *trass.Trajectory, eps float64, w trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error) {
	defer b.record(time.Now(), 0)
	return b.Backend.ThresholdSearchWindowContext(ctx, q, eps, w)
}

func (b *timedBackend) ThresholdSearchWindowFunc(ctx context.Context, q *trass.Trajectory, eps float64, w trass.TimeWindow, fn func(trass.Match) error) (*trass.QueryStats, error) {
	var emit time.Duration
	start := time.Now()
	st, err := b.Backend.ThresholdSearchWindowFunc(ctx, q, eps, w, timedEmit(fn, &emit))
	b.record(start, emit)
	return st, err
}

func (b *timedBackend) TopKSearchWindowContext(ctx context.Context, q *trass.Trajectory, k int, w trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error) {
	defer b.record(time.Now(), 0)
	return b.Backend.TopKSearchWindowContext(ctx, q, k, w)
}

func (b *timedBackend) RangeSearchWindowContext(ctx context.Context, window trass.Rect, w trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error) {
	defer b.record(time.Now(), 0)
	return b.Backend.RangeSearchWindowContext(ctx, window, w)
}

func (b *timedBackend) RangeSearchWindowFunc(ctx context.Context, window trass.Rect, w trass.TimeWindow, fn func(trass.Match) error) (*trass.QueryStats, error) {
	var emit time.Duration
	start := time.Now()
	st, err := b.Backend.RangeSearchWindowFunc(ctx, window, w, timedEmit(fn, &emit))
	b.record(start, emit)
	return st, err
}

func (b *timedBackend) NearestSearchContext(ctx context.Context, p trass.Point, k int) ([]trass.Match, *trass.QueryStats, error) {
	defer b.record(time.Now(), 0)
	return b.Backend.NearestSearchContext(ctx, p, k)
}

// countingWriter is the http.ResponseWriter the in-process handler seam
// writes into: it keeps the status and counts what a socket would have been
// asked to carry.
type countingWriter struct {
	header  http.Header
	status  int
	bytes   int64
	writes  int
	flushes int
}

func newCountingWriter() *countingWriter { return &countingWriter{header: make(http.Header)} }

func (w *countingWriter) Header() http.Header { return w.header }

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.writes++
	w.bytes += int64(len(p))
	return len(p), nil
}

// Flush implements http.Flusher, which the stream handler looks for.
func (w *countingWriter) Flush() { w.flushes++ }
