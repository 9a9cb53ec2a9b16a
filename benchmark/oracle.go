package main

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	trass "repro"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/traj"
)

// The oracle answers a query by a linear scan over every stored trajectory:
// no index, no pruning lemmas, no pushed-down filter. Its shortcuts are the
// bounding-box distance, which bounds the measure from below (any pairing of
// the two trajectories' points is at least as far apart as their boxes), and
// for thresholds the endpoint distances, which Frechet pairs by definition.
// Stored points are quantised by the row codec, so the oracle scans
// traj.DecodePoints(traj.EncodePoints(p)) and not p.

// distTol is the slack on distance comparisons: the engine and the oracle
// run the same kernels on the same points, so they agree to the last bit
// unless a future kernel reorders floating-point operations.
const distTol = 1e-12

// mbrSlack widens bounding-box tests done on unquantised points so that
// quantisation (2^-30 per coordinate) can never turn a keep into a reject.
const mbrSlack = 1e-8

type oracleTraj struct {
	id  string
	raw []geo.Point
	mbr geo.Rect // of raw
	q   []geo.Point
}

// points returns the trajectory's stored (quantised) points, decoded once.
func (t *oracleTraj) points() ([]geo.Point, error) {
	if t.q == nil {
		q, err := traj.DecodePoints(traj.EncodePoints(t.raw))
		if err != nil {
			return nil, err
		}
		t.q = q
	}
	return t.q, nil
}

type oracle struct {
	trajs []oracleTraj
}

func newOracle(stored []*trass.Trajectory) *oracle {
	o := &oracle{trajs: make([]oracleTraj, len(stored))}
	for i, t := range stored {
		o.trajs[i] = oracleTraj{id: t.ID, raw: t.Points, mbr: geo.MBRPoints(t.Points)}
	}
	return o
}

// threshold returns id -> distance for every trajectory within eps of q.
func (o *oracle) threshold(q []geo.Point, eps float64) (map[string]float64, error) {
	full := dist.For(dist.Frechet)
	qmbr := geo.MBRPoints(q)
	out := make(map[string]float64)
	for i := range o.trajs {
		t := &o.trajs[i]
		if geo.DistRectRect(qmbr, t.mbr) > eps+mbrSlack {
			continue
		}
		pts, err := t.points()
		if err != nil {
			return nil, err
		}
		// Endpoints pair with endpoints under Frechet; skipping the full
		// kernel when they alone exceed eps keeps the scan linear in practice.
		if q[0].Dist(pts[0]) > eps+distTol || q[len(q)-1].Dist(pts[len(pts)-1]) > eps+distTol {
			continue
		}
		if d := full(q, pts); d <= eps+distTol {
			out[t.id] = d
		}
	}
	return out, nil
}

// maxHeap of distances: the k best so far, worst on top.
type maxHeap []float64

// offer keeps d if it is among the k smallest seen, and returns the bound a
// further distance must beat: the kth best, or +Inf until k are held.
func (h *maxHeap) offer(d float64, k int) float64 {
	if h.Len() < k {
		heap.Push(h, d)
	} else if d < (*h)[0] {
		(*h)[0] = d
		heap.Fix(h, 0)
	}
	if h.Len() < k {
		return math.Inf(1)
	}
	return (*h)[0]
}

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// topK returns the k smallest distances to q, ascending. Trajectories are
// visited nearest box first, so the scan stops at the first box farther than
// the kth best distance.
func (o *oracle) topK(q []geo.Point, k int) ([]float64, error) {
	full := dist.For(dist.Frechet)
	within := dist.WithinFor(dist.Frechet)
	qmbr := geo.MBRPoints(q)
	type cand struct {
		i  int
		lb float64
	}
	cands := make([]cand, len(o.trajs))
	for i := range o.trajs {
		cands[i] = cand{i: i, lb: geo.DistRectRect(qmbr, o.trajs[i].mbr)}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].lb < cands[b].lb })
	best := &maxHeap{}
	bound := math.Inf(1)
	for _, c := range cands {
		if c.lb > bound+mbrSlack {
			break
		}
		pts, err := o.trajs[c.i].points()
		if err != nil {
			return nil, err
		}
		if !math.IsInf(bound, 1) && !within(q, pts, bound) {
			continue
		}
		bound = best.offer(full(q, pts), k)
	}
	out := append([]float64(nil), *best...)
	sort.Float64s(out)
	return out, nil
}

// rangeQuery returns the ids of every trajectory with a stored point inside
// window.
func (o *oracle) rangeQuery(window geo.Rect) (map[string]bool, error) {
	grown := window.Buffer(mbrSlack)
	out := make(map[string]bool)
	for i := range o.trajs {
		t := &o.trajs[i]
		if !grown.Intersects(t.mbr) {
			continue
		}
		pts, err := t.points()
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			if window.ContainsPoint(p) {
				out[t.id] = true
				break
			}
		}
	}
	return out, nil
}

// check compares one answer with the oracle's; the empty string means they
// agree.
func (o *oracle) check(kind queryKind, q *trass.Trajectory, got []trass.Match) (string, error) {
	switch kind {
	case kindThreshold:
		eps := gen.DegreesToNorm(epsDeg)
		want, err := o.threshold(q.Points, eps)
		if err != nil {
			return "", err
		}
		seen := make(map[string]bool, len(got))
		for _, m := range got {
			seen[m.ID] = true
			d, ok := want[m.ID]
			if !ok {
				return fmt.Sprintf("query %s: %s returned at %.12g, oracle has it beyond eps", q.ID, m.ID, m.Distance), nil
			}
			if math.Abs(d-m.Distance) > distTol {
				return fmt.Sprintf("query %s: %s at %.17g, oracle %.17g", q.ID, m.ID, m.Distance, d), nil
			}
		}
		for id, d := range want {
			// A trajectory sitting on the threshold to within the tolerance
			// may legitimately fall either way.
			if !seen[id] && d < eps-distTol {
				return fmt.Sprintf("query %s: missed %s at %.12g", q.ID, id, d), nil
			}
		}
	case kindTopK:
		want, err := o.topK(q.Points, topK)
		if err != nil {
			return "", err
		}
		if len(got) != len(want) {
			return fmt.Sprintf("query %s: %d results, oracle %d", q.ID, len(got), len(want)), nil
		}
		for i, m := range got {
			if math.Abs(m.Distance-want[i]) > distTol {
				return fmt.Sprintf("query %s: rank %d at %.17g, oracle %.17g", q.ID, i, m.Distance, want[i]), nil
			}
		}
	case kindRange:
		want, err := o.rangeQuery(rangeWindow(q))
		if err != nil {
			return "", err
		}
		if len(got) != len(want) {
			return fmt.Sprintf("query %s: %d results, oracle %d", q.ID, len(got), len(want)), nil
		}
		for _, m := range got {
			if !want[m.ID] {
				return fmt.Sprintf("query %s: %s returned, oracle has no point of it in the window", q.ID, m.ID), nil
			}
		}
	}
	return "", nil
}

// sameAnswer reports whether a served answer equals the embedded one: the
// same trajectories at the same distances carrying the same points. Streamed
// delivery order is unspecified, so both sides are compared by id.
func sameAnswer(served, embedded []trass.Match) string {
	if len(served) != len(embedded) {
		return fmt.Sprintf("served %d matches, embedded %d", len(served), len(embedded))
	}
	byID := make(map[string]trass.Match, len(embedded))
	for _, m := range embedded {
		byID[m.ID] = m
	}
	for _, s := range served {
		m, ok := byID[s.ID]
		if !ok {
			return fmt.Sprintf("served %s, embedded did not return it", s.ID)
		}
		if math.Abs(s.Distance-m.Distance) > distTol || len(s.Points) != len(m.Points) {
			return fmt.Sprintf("%s: served (%.17g, %d points), embedded (%.17g, %d points)", s.ID, s.Distance, len(s.Points), m.Distance, len(m.Points))
		}
		for i := range s.Points {
			if s.Points[i] != m.Points[i] {
				return fmt.Sprintf("%s: point %d differs over the wire", s.ID, i)
			}
		}
	}
	return ""
}

// oracleCheck re-runs the first sc.oracle queries through the workload's own
// operation path after the window and compares each answer with a linear
// scan over everything stored by then (the bulk load, plus the first written
// of the trajectories set aside for puts). It returns the queries checked and
// the disagreements.
func (e *env) oracleCheck(ctx context.Context, written int) (checked int, wrong []string, err error) {
	stored := gen.TDrive(gen.TDriveOptions{Seed: e.seed, N: e.sc.n})
	stored = append(stored, putTrajectories(e.seed, written)...)
	o := newOracle(stored)
	for i := 0; i < e.sc.oracle && i < len(e.queries) && ctx.Err() == nil; i++ {
		q := e.queries[i]
		a, err := e.op(ctx, i%max(len(e.clients), 1), q, true)
		if err != nil {
			return checked, wrong, err
		}
		msg, err := o.check(e.w.kind, q, a.matches)
		if err != nil {
			return checked, wrong, err
		}
		if msg == "" && e.w.served {
			emb, err := embeddedOp(ctx, e.db, e.w.kind, q)
			if err != nil {
				return checked, wrong, err
			}
			msg = sameAnswer(a.matches, emb.matches)
		}
		checked++
		if msg != "" {
			wrong = append(wrong, msg)
		}
	}
	return checked, wrong, ctx.Err()
}
