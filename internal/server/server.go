package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	trass "repro"
)

// Backend is the query surface the server serves. *trass.DB implements it;
// tests wrap it to count lifecycle calls and inject faults. The server
// answers threshold and range through the Func methods and never calls
// ThresholdSearchWindowContext or RangeSearchWindowContext: those two stay
// only because the benchmark's timed wrapper calls them through its
// embedded Backend, until the interface shrinks to one Search method.
type Backend interface {
	ThresholdSearchWindowContext(ctx context.Context, q *trass.Trajectory, eps float64, w trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error)
	ThresholdSearchWindowFunc(ctx context.Context, q *trass.Trajectory, eps float64, w trass.TimeWindow, fn func(trass.Match) error) (*trass.QueryStats, error)
	TopKSearchWindowContext(ctx context.Context, q *trass.Trajectory, k int, w trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error)
	RangeSearchWindowContext(ctx context.Context, window trass.Rect, w trass.TimeWindow) ([]trass.Match, *trass.QueryStats, error)
	RangeSearchWindowFunc(ctx context.Context, window trass.Rect, w trass.TimeWindow, fn func(trass.Match) error) (*trass.QueryStats, error)
	NearestSearchContext(ctx context.Context, p trass.Point, k int) ([]trass.Match, *trass.QueryStats, error)
	Get(id string) (*trass.Trajectory, error)
	Count() int64
	StorageStats() (trass.StorageStats, error)
	Close() error
}

var _ Backend = (*trass.DB)(nil)

// Config sizes the serving layer. The zero value is usable: sane deadlines,
// a generous in-flight bound, drain until the caller's ctx expires.
type Config struct {
	// MaxInFlight bounds concurrently executing queries; excess requests are
	// shed with 429 instead of queueing without bound. Default 64.
	MaxInFlight int
	// DefaultDeadline applies when a request carries no deadline_ms.
	// Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines. Default 2m.
	MaxDeadline time.Duration
	// Logf receives serving events (startup, drain, shed); nil silences.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	return c
}

// Server serves one TraSS database over HTTP. Lifecycle: New, Serve (blocks),
// Shutdown from another goroutine; Shutdown drains in-flight streams and then
// closes the database exactly once.
type Server struct {
	db  Backend
	cfg Config
	mux *http.ServeMux

	httpSrv *http.Server
	// baseCtx roots every request context. Cancelling it (drain deadline
	// exceeded) aborts every in-flight query through the engine's ctx
	// plumbing.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	inflight chan struct{} // semaphore: acquired per query, 429 when full
	served   atomic.Int64
	shed     atomic.Int64
	draining atomic.Bool

	closeOnce sync.Once
	closeErr  error

	// streamDelay throttles each match line; tests use it to hold a stream
	// open long enough to cut the connection mid-flight.
	streamDelay time.Duration
	// queryCtxHook observes each query's context as it starts; tests use it
	// to assert disconnect propagation. Nil in production.
	queryCtxHook func(ctx context.Context)
}

// New builds a server over db. The db is owned by the server from here on:
// Shutdown closes it.
func New(db Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		db:         db,
		cfg:        cfg,
		baseCtx:    baseCtx,
		cancelBase: cancel,
		inflight:   make(chan struct{}, cfg.MaxInFlight),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux = mux
	s.httpSrv = &http.Server{
		Handler: mux,
		BaseContext: func(net.Listener) context.Context {
			// Request contexts derive from here, so cancelBase reaches every
			// in-flight query — and net/http layers per-connection
			// disconnect cancellation on top.
			return baseCtx
		},
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler exposes the routing mux (tests drive handlers without a socket).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on lis until Shutdown. It returns
// http.ErrServerClosed after a clean drain, matching net/http convention.
func (s *Server) Serve(lis net.Listener) error {
	s.logf("trassd: serving on %s (max in-flight %d)", lis.Addr(), cap(s.inflight))
	return s.httpSrv.Serve(lis)
}

// InFlight returns the number of queries currently executing.
func (s *Server) InFlight() int { return len(s.inflight) }

// Shutdown drains gracefully: stop accepting, let in-flight streams finish
// until ctx expires, then cancel them through the engine's context plumbing,
// and finally close the database — exactly once, no matter how many times
// Shutdown is called. The first call's error (if any) sticks.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.logf("trassd: draining (in-flight %d)", s.InFlight())
	err := s.httpSrv.Shutdown(ctx)
	if err != nil {
		// Drain deadline expired with streams still open: abort their
		// queries via the shared base context, then force-close conns.
		s.logf("trassd: drain deadline expired, cancelling %d in-flight queries", s.InFlight())
		s.cancelBase()
		if cerr := s.httpSrv.Close(); err == nil {
			err = cerr
		}
	}
	s.cancelBase()
	s.closeOnce.Do(func() { s.closeErr = s.db.Close() })
	if err == nil {
		err = s.closeErr
	}
	s.logf("trassd: drained")
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// acquire claims an in-flight slot without blocking; false means shed.
func (s *Server) acquire() bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) release() { <-s.inflight }

// writeError emits the uniform JSON error body. Encoding errors are
// swallowed: the client is gone or the stream is broken, and the transport
// error already decided the request's fate.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	st, err := s.db.StorageStats()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "storage: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if st.KV.CompactDegraded {
		// Still serving — merges are behind, not reads — so health stays 200
		// with the degradation visible in the body and in /statsz.
		status = "degraded"
	}
	_ = json.NewEncoder(w).Encode(map[string]string{"status": status})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st, err := s.db.StorageStats()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "storage: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(StatszResponse{
		InFlight:        s.InFlight(),
		Served:          s.served.Load(),
		Shed:            s.shed.Load(),
		Draining:        s.draining.Load(),
		Trajectories:    s.db.Count(),
		CompactDegraded: st.KV.CompactDegraded,
		PinnedSnapshots: st.KV.PinnedSnapshots,
		FrozenMemtables: st.KV.FrozenMemtables,
		ObsoleteTables:  st.KV.ObsoleteTables,
		Storage:         st,
	})
}
