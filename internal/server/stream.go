package server

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	trass "repro"
)

// streamQuery writes the one reply /v1/query has: a 200 header goes out with
// the first line, then one NDJSON line per match as run's sink receives it,
// then the footer line with the QueryStats — the trailer a chunked response
// can't carry in headers. A query that fails before its first line is
// answered with the status writeQueryError picks.
//
// No reply outlives ctx's deadline by more than finishGrace: a Write blocked
// on a client that stopped reading does not observe ctx, so the connection's
// write deadline is set to it, and a stalled reader fails the Write and
// releases the in-flight slot and the query's snapshot. Once the query has
// ended, the deadline moves finishGrace ahead so the 504 or the footer that
// reports an expired deadline can still go out: net/http flushes the reply
// before it clears the deadline. A socket write that already failed stays
// failed, so a stalled reader gains nothing from the move. A writer without
// deadlines (a test recorder) returns http.ErrNotSupported; its writes do not
// block on a peer.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, q trass.Query, includePoints bool) {
	rc := http.NewResponseController(w)
	dl, _ := ctx.Deadline() // handleQuery's ctx always has one
	_ = rc.SetWriteDeadline(dl)
	sw := &streamWriter{w: w}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}

	// The sink runs on the refine workers, one call at a time, and Search
	// joins them before it returns, so one line buffer serves the request.
	var line []byte
	n := 0
	emit := func(m trass.Match) error {
		if s.streamDelay > 0 {
			select {
			case <-time.After(s.streamDelay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		b, err := appendMatch(append(line[:0], `{"match":`...), m, includePoints)
		if err != nil {
			return err
		}
		line = append(b, "}\n"...)
		if err := sw.writeLine(line); err != nil {
			return err
		}
		n++
		return nil
	}

	stats, err := s.run(ctx, q, emit)
	_ = rc.SetWriteDeadline(time.Now().Add(finishGrace))
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
	_ = sw.writeLine(append(b, '\n'))
}

// finishGrace is how long the last write of a reply (its footer, or the
// status of a query that failed before its first line) may take after the
// query has ended.
const finishGrace = time.Second

// streamWriter writes NDJSON lines, flushing each one so matches reach the
// client as they are produced rather than when a buffer fills.
type streamWriter struct {
	w     http.ResponseWriter
	flush func()
	wrote bool // a line (and with it the 200 header) has gone to w
}

// writeLine writes one newline-terminated line.
func (sw *streamWriter) writeLine(line []byte) error {
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
