package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	trass "repro"
)

// streamQuery runs the streaming path: a 200 header goes out with the first
// line, then one NDJSON line per match as run's sink receives it, then the
// footer line with the QueryStats — the trailer a chunked response can't
// carry in headers. A query that fails before its first line is answered
// like a collected one, with the status writeQueryError picks.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, q trass.Query, includePoints bool) {
	sw := &streamWriter{w: w, delay: s.streamDelay}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}

	// The sink runs on the refine workers, one call at a time, and Search
	// joins them before it returns, so one line buffer serves the request.
	var line []byte
	n := 0
	emit := func(m trass.Match) error {
		b, err := appendMatch(append(line[:0], `{"match":`...), m, includePoints)
		if err != nil {
			return err
		}
		line = append(b, "}\n"...)
		if err := sw.writeLine(ctx, line); err != nil {
			return err
		}
		n++
		return nil
	}

	_, stats, err := s.run(ctx, q, emit)
	if err != nil && !sw.wrote {
		// Nothing is on the wire yet, so the status is still ours to set.
		writeQueryError(w, err)
		return
	}
	footer := StreamLine{Done: true, Results: n, Stats: statsToWire(stats)}
	if err != nil {
		// In-band failure: the write error (client gone) or the query error.
		// Either way the footer carries it; a dead socket just drops it.
		footer.Error = err.Error()
	}
	b, _ := json.Marshal(footer) // integers and strings only: cannot fail
	_ = sw.writeLine(ctx, append(b, '\n'))
}

// streamWriter writes NDJSON lines, flushing each one so matches reach the
// client as they are produced rather than when a buffer fills.
type streamWriter struct {
	w     http.ResponseWriter
	flush func()
	delay time.Duration // test hook: hold the stream open per line
	wrote bool          // a line (and with it the 200 header) has gone to w
}

// writeLine writes one newline-terminated line.
func (sw *streamWriter) writeLine(ctx context.Context, line []byte) error {
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
	if _, err := sw.w.Write(line); err != nil {
		return err
	}
	if sw.flush != nil {
		sw.flush()
	}
	return nil
}
