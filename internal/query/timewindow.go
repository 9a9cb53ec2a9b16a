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

// admits reports whether a timestamp range overlaps the window. Untimed
// trajectories (timed = false) always qualify: absence of timestamps must not
// silently hide data.
func (w TimeWindow) admits(min, max int64, timed bool) bool {
	if !timed {
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

// wrapWithWindow makes the filter a region scan runs out of a time window
// and a spatial push-down (either may be absent; with neither there is no
// filter). It locates the row's sections once, for both, and lends inner one
// scratch for every row. The spatial check goes first — most rows fall at their
// first point, two varints, where the time check reads one per point. A row
// whose framing or timestamps do not parse ships, so that the worker's decode
// reports it. walked counts the rows whose point stream inner had to walk.
// The filter runs one row at a time: a scan calls it on its own goroutine.
func wrapWithWindow(w TimeWindow, inner rowFilter) (filter func(key, value []byte) bool, walked *int64) {
	walked = new(int64)
	if w.Unbounded() && inner == nil {
		return nil, walked
	}
	s := new(filterScratch)
	return func(_, value []byte) bool {
		v, err := traj.ViewRecord(value)
		if err != nil {
			return true
		}
		if inner != nil {
			keep := inner(v, s)
			if s.walked {
				s.walked = false
				*walked++
			}
			if !keep {
				return false
			}
		}
		if w.Unbounded() {
			return true
		}
		min, max, timed, err := v.TimeBounds()
		return err != nil || w.admits(min, max, timed)
	}, walked
}
