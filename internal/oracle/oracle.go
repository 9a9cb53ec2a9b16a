// Package oracle is the one definition of a correct answer. Every query
// kind is answered by a linear scan over the trajectories with the exact
// dist.For kernels: no index, no features, no engine code. The paper's
// central claim is that global pruning (Lemmas 5-11) and local filtering
// (Lemmas 12-14) never dismiss a true match; a test checks it by comparing
// an engine's answer with the oracle's, exactly.
//
// Run over Stored data, the oracle sees the very points a store refines on,
// and the bounded kernels return bit-identical distances to dist.For, so
// the comparison needs no tolerance: Diff reports any difference in an id or
// a distance. Ids are assumed unique, as a store keeps one row per id.
package oracle

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/traj"
)

// Match is one trajectory in an answer. Range matches carry no distance.
type Match struct {
	ID       string
	Distance float64
}

// Window is a time window [Start, End] in the trajectories' Unix seconds,
// both ends inclusive. A zero bound is open. A trajectory is admitted when
// its timestamp range overlaps the window; an untimed trajectory is
// admitted by every window.
type Window struct {
	Start, End int64
}

func (w Window) admits(t *traj.Trajectory) bool {
	if len(t.Times) == 0 {
		return true
	}
	first, last := t.Times[0], t.Times[0]
	for _, s := range t.Times[1:] {
		first, last = min(first, s), max(last, s)
	}
	return (w.Start == 0 || last >= w.Start) && (w.End == 0 || first <= w.End)
}

// Stored returns ts as a store holds them: each trajectory's points
// round-tripped through the row codec, which quantizes coordinates.
// Requantizing is idempotent, so Stored of stored data is that data.
func Stored(ts []*traj.Trajectory) []*traj.Trajectory {
	out := make([]*traj.Trajectory, len(ts))
	for i, t := range ts {
		pts, err := traj.DecodePoints(traj.EncodePoints(t.Points))
		if err != nil {
			panic(fmt.Sprintf("oracle: %s does not round-trip the point codec: %v", t.ID, err))
		}
		out[i] = &traj.Trajectory{ID: t.ID, Points: pts, Times: t.Times}
	}
	return out
}

// Threshold answers a threshold query: every admitted trajectory t with
// f(q, t) <= eps, in id order.
func Threshold(m dist.Measure, ts []*traj.Trajectory, q []geo.Point, eps float64, w Window) []Match {
	fn := dist.For(m)
	var out []Match
	for _, t := range ts {
		if w.admits(t) {
			if d := fn(q, t.Points); d <= eps {
				out = append(out, Match{ID: t.ID, Distance: d})
			}
		}
	}
	return ByID(out)
}

// TopK answers a top-k query: the k admitted trajectories smallest under
// (f(q, t), id), in that order.
func TopK(m dist.Measure, ts []*traj.Trajectory, q []geo.Point, k int, w Window) []Match {
	fn := dist.For(m)
	var all []Match
	for _, t := range ts {
		if w.admits(t) {
			all = append(all, Match{ID: t.ID, Distance: fn(q, t.Points)})
		}
	}
	return Ranked(all)[:max(0, min(k, len(all)))]
}

// Range answers a range query: every admitted trajectory with a point
// inside r (edges included), in id order.
func Range(ts []*traj.Trajectory, r geo.Rect, w Window) []Match {
	var out []Match
	for _, t := range ts {
		if w.admits(t) && slices.ContainsFunc(t.Points, r.ContainsPoint) {
			out = append(out, Match{ID: t.ID})
		}
	}
	return ByID(out)
}

// Nearest answers a nearest-to-point query: the k trajectories smallest
// under (closest approach to p, id), in that order. The closest approach is
// the smallest distance from p to any of the trajectory's points.
func Nearest(ts []*traj.Trajectory, p geo.Point, k int) []Match {
	all := make([]Match, len(ts))
	for i, t := range ts {
		d := math.Inf(1)
		for _, pt := range t.Points {
			d = min(d, p.Dist(pt))
		}
		all[i] = Match{ID: t.ID, Distance: d}
	}
	return Ranked(all)[:max(0, min(k, len(all)))]
}

// ByID sorts ms by id, in place, and returns it: the order of a threshold
// or range answer, whose engine order carries no meaning.
func ByID(ms []Match) []Match {
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return ms
}

// Ranked sorts ms by (distance, id), in place, and returns it: the order of
// a top-k or nearest answer.
func Ranked(ms []Match) []Match {
	sort.Slice(ms, func(i, j int) bool {
		if a, b := ms[i].Distance, ms[j].Distance; a < b || a > b {
			return a < b
		}
		return ms[i].ID < ms[j].ID
	})
	return ms
}

// Diff compares an answer with the oracle's, position by position, and
// describes the first difference; "" means they are equal: the same ids in
// the same order, each with the same distance. Distances compare exactly,
// with no tolerance.
func Diff(got, want []Match) string {
	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Distance < w.Distance || g.Distance > w.Distance {
			return fmt.Sprintf("at %d of %d: got (%s, %v), want (%s, %v)", i, len(want), g.ID, g.Distance, w.ID, w.Distance)
		}
	}
	switch {
	case len(got) > len(want):
		return fmt.Sprintf("%d matches, want %d: the first extra is (%s, %v)", len(got), len(want), got[len(want)].ID, got[len(want)].Distance)
	case len(got) < len(want):
		return fmt.Sprintf("%d matches, want %d: the first missing is (%s, %v)", len(got), len(want), want[len(got)].ID, want[len(got)].Distance)
	}
	return ""
}
