package query

import "repro/internal/traj"

// TimeWindow restricts a query to trajectories observed within [Start, End]
// (Unix seconds, inclusive). A zero Start or End leaves that side unbounded.
// The XZ* index is purely spatial (as in the paper), so the window applies
// as part of the pushed-down local filter: rows whose timestamp range misses
// the window never leave the region servers.
type TimeWindow struct {
	Start, End int64
}

// Unbounded reports whether the window constrains nothing.
func (w TimeWindow) Unbounded() bool { return w.Start == 0 && w.End == 0 }

// admits reports whether a record overlaps the window. Untimed trajectories
// always qualify: absence of timestamps must not silently hide data.
func (w TimeWindow) admits(rec *traj.Record) bool {
	if w.Unbounded() {
		return true
	}
	min, max, ok := rec.TimeBounds()
	if !ok {
		return true
	}
	if w.Start != 0 && max < w.Start {
		return false
	}
	if w.End != 0 && min > w.End {
		return false
	}
	return true
}

// wrapWithWindow composes a time predicate around a spatial push-down
// filter. A nil inner filter yields a pure time filter; an unbounded window
// returns the inner filter unchanged.
func wrapWithWindow(w TimeWindow, inner func(key, value []byte) bool) func(key, value []byte) bool {
	if w.Unbounded() {
		return inner
	}
	return func(key, value []byte) bool {
		rec, err := traj.DecodeRecord(value)
		if err != nil {
			return true // surface corruption at the client decode
		}
		if !w.admits(rec) {
			return false
		}
		if inner == nil {
			return true
		}
		return inner(key, value)
	}
}
