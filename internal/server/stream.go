package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	trass "repro"
)

// streamQuery runs the streaming path: a 200 header goes out with the first
// line, then one NDJSON line per match as the refine workers emit it (the
// Backend's ThresholdSearchWindowFunc/RangeSearchWindowFunc), then the footer
// line with the QueryStats — the trailer a chunked response can't carry in
// headers. Top-k and point-kNN compute their (small, ordered) result set
// first and stream it out line by line, so every kind shares one wire shape.
// A query that fails before its first line is answered like a collected one,
// with the status writeQueryError picks.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, req *QueryRequest) {
	sw := &streamWriter{w: w, enc: json.NewEncoder(w), delay: s.streamDelay}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}

	n := 0
	emit := func(m trass.Match) error {
		if err := sw.writeLine(ctx, StreamLine{Match: ptr(matchToWire(m, req.IncludePoints))}); err != nil {
			return err
		}
		n++
		return nil
	}

	stats, err := s.runStream(ctx, req, emit)
	if err != nil && !sw.wrote {
		// Nothing is on the wire yet, so the status is still ours to set.
		writeQueryError(w, err)
		return
	}
	if err != nil {
		// In-band failure: the write error (client gone) or the query error.
		// Either way the footer carries it; a dead socket just drops it.
		_ = sw.writeLine(ctx, StreamLine{Done: true, Results: n, Stats: statsToWire(stats), Error: err.Error()})
		return
	}
	_ = sw.writeLine(ctx, StreamLine{Done: true, Results: n, Stats: statsToWire(stats)})
}

// runStream dispatches one streaming query through the emit callback.
func (s *Server) runStream(ctx context.Context, req *QueryRequest, emit func(trass.Match) error) (*trass.QueryStats, error) {
	tw := req.timeWindow()
	switch req.Kind {
	case KindThreshold:
		q, err := s.queryTrajectory(req)
		if err != nil {
			return nil, err
		}
		return s.db.ThresholdSearchWindowFunc(ctx, q, req.Eps, tw, emit)
	case KindRange:
		rect, err := req.rect()
		if err != nil {
			return nil, badRequest(err)
		}
		return s.db.RangeSearchWindowFunc(ctx, rect, tw, emit)
	case KindTopK, KindKNN:
		matches, stats, err := s.runCollect(ctx, req)
		if err != nil {
			return stats, err
		}
		for _, m := range matches {
			if err := emit(m); err != nil {
				return stats, err
			}
		}
		return stats, nil
	default:
		return nil, badRequest(fmt.Errorf("unknown query kind %q", req.Kind))
	}
}

// streamWriter writes NDJSON lines, flushing each one so matches reach the
// client as they are produced rather than when a buffer fills.
type streamWriter struct {
	w     http.ResponseWriter
	enc   *json.Encoder
	flush func()
	delay time.Duration // test hook: hold the stream open per line
	wrote bool          // a line (and with it the 200 header) has gone to w
}

func (sw *streamWriter) writeLine(ctx context.Context, line StreamLine) error {
	if sw.delay > 0 {
		select {
		case <-time.After(sw.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if !sw.wrote {
		sw.wrote = true
		sw.w.Header().Set("Content-Type", "application/x-ndjson")
		sw.w.Header().Set("X-Accel-Buffering", "no")
	}
	// Encode appends the newline NDJSON needs.
	if err := sw.enc.Encode(line); err != nil {
		return err
	}
	if sw.flush != nil {
		sw.flush()
	}
	return nil
}

func ptr[T any](v T) *T { return &v }
