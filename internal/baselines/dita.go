package baselines

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/traj"
)

// DITA reproduces the structure of "DITA: Distributed In-Memory Trajectory
// Analytics" (SIGMOD 2018): a trie over quantized pivot points — first point,
// last point, then Douglas-Peucker pivots — with MBR-coverage filtering
// before verification. The published system supports Fréchet and DTW but not
// Hausdorff, and Section VI notes its weakness: a trajectory may occupy a
// small corner of its node's MBR, so coverage filtering prunes little.
type DITA struct {
	measure   dist.Measure
	gridRes   int // quantization cells per axis
	numPivots int // inner pivots beyond first/last

	root   *ditaNode
	data   map[string]*traj.Trajectory
	bounds geo.Rect // dataset bounds; the grid adapts to them at build time
}

type ditaNode struct {
	children map[int32]*ditaNode
	ids      []string // trajectories ending at this node
	mbr      geo.Rect // MBR of all trajectories below
}

func newDitaNode() *ditaNode {
	return &ditaNode{children: map[int32]*ditaNode{}, mbr: geo.EmptyRect()}
}

// NewDITA builds an empty DITA engine.
func NewDITA(measure dist.Measure) *DITA {
	return &DITA{measure: measure, gridRes: 128, numPivots: 3, bounds: geo.World}
}

// Name implements System.
func (d *DITA) Name() string { return "DITA" }

// Close implements System.
func (d *DITA) Close() error { return nil }

// cellOf quantizes a point onto the trie grid, which spans the dataset
// bounds (DITA's real partitioning is data-dependent too; a world-fixed grid
// would collapse for a city-scale dataset).
func (d *DITA) cellOf(p geo.Point) int32 {
	g := d.gridRes
	fx, fy := 0.0, 0.0
	if w := d.bounds.Width(); w > 0 {
		fx = (p.X - d.bounds.Min.X) / w
	}
	if h := d.bounds.Height(); h > 0 {
		fy = (p.Y - d.bounds.Min.Y) / h
	}
	x := int(geo.Clamp01(fx) * float64(g))
	if x >= g {
		x = g - 1
	}
	y := int(geo.Clamp01(fy) * float64(g))
	if y >= g {
		y = g - 1
	}
	return int32(y*g + x)
}

// cellRect is the inverse of cellOf.
func (d *DITA) cellRect(c int32) geo.Rect {
	g := d.gridRes
	w := d.bounds.Width() / float64(g)
	h := d.bounds.Height() / float64(g)
	x, y := int(c)%g, int(c)/g
	return geo.Rect{
		Min: geo.Point{X: d.bounds.Min.X + float64(x)*w, Y: d.bounds.Min.Y + float64(y)*h},
		Max: geo.Point{X: d.bounds.Min.X + float64(x+1)*w, Y: d.bounds.Min.Y + float64(y+1)*h},
	}
}

// pivots returns the trie path of a trajectory: first, last, then up to
// numPivots DP pivots (padded by repeating the last pivot so every path has
// equal length).
func (d *DITA) pivots(t *traj.Trajectory) []geo.Point {
	out := []geo.Point{t.Start(), t.End()}
	idx := traj.DouglasPeucker(t.Points, 0.01)
	inner := make([]geo.Point, 0, d.numPivots)
	for _, i := range idx {
		if i == 0 || i == len(t.Points)-1 {
			continue
		}
		inner = append(inner, t.Points[i])
		if len(inner) == d.numPivots {
			break
		}
	}
	for len(inner) < d.numPivots {
		if len(inner) == 0 {
			inner = append(inner, t.End())
		} else {
			inner = append(inner, inner[len(inner)-1])
		}
	}
	return append(out, inner...)
}

// Build implements System: insert every trajectory's pivot path into the
// trie, maintaining subtree MBRs.
func (d *DITA) Build(trajs []*traj.Trajectory) (time.Duration, error) {
	if d.measure == dist.Hausdorff {
		return 0, errUnsupported{op: "Hausdorff", sys: "DITA"}
	}
	start := time.Now()
	d.root = newDitaNode()
	d.data = make(map[string]*traj.Trajectory, len(trajs))
	d.bounds = geo.EmptyRect()
	for _, t := range trajs {
		if _, dup := d.data[t.ID]; dup {
			return 0, fmt.Errorf("dita: duplicate trajectory id %q", t.ID)
		}
		d.data[t.ID] = t
		d.bounds = d.bounds.Union(t.MBR())
	}
	if d.bounds.IsEmpty() {
		d.bounds = geo.World
	}
	for _, t := range trajs {
		n := d.root
		mbr := t.MBR()
		n.mbr = n.mbr.Union(mbr)
		for _, p := range d.pivots(t) {
			c := d.cellOf(p)
			child := n.children[c]
			if child == nil {
				child = newDitaNode()
				n.children[c] = child
			}
			child.mbr = child.mbr.Union(mbr)
			n = child
		}
		n.ids = append(n.ids, t.ID)
	}
	return time.Since(start), nil
}

// Threshold implements System: trie traversal keeps a child cell only when
// it is within eps of the corresponding query pivot (first/last levels,
// sound by Lemma 12) or of any query point (inner pivot levels, sound
// because every point of a similar trajectory lies within eps of Q), then
// applies MBR-coverage filtering before verification.
func (d *DITA) Threshold(q *traj.Trajectory, eps float64) ([]Result, *Stats, error) {
	if d.root == nil {
		return nil, &Stats{}, nil
	}
	stats := &Stats{}
	t0 := time.Now()
	qp := d.pivots(q)
	ext := q.MBR().Buffer(eps)

	var candIDs []string
	var walk func(n *ditaNode, level int)
	walk = func(n *ditaNode, level int) {
		stats.Scanned++
		if !n.mbr.Intersects(ext) && level > 0 {
			return
		}
		if len(n.ids) > 0 {
			candIDs = append(candIDs, n.ids...)
		}
		for c, child := range n.children {
			cell := d.cellRect(c)
			var ok bool
			if level < 2 {
				// First/last point levels align with the query's endpoints.
				ok = geo.DistPointRect(qp[level], cell) <= eps
			} else {
				// Inner pivots only need to be near some point of Q.
				ok = distCellToPoints(cell, q.Points) <= eps
			}
			if ok {
				walk(child, level+1)
			} else {
				stats.Scanned++
			}
		}
	}
	if d.measure == dist.Hausdorff {
		return nil, nil, errUnsupported{op: "Hausdorff", sys: "DITA"}
	}
	walk(d.root, 0)
	stats.PruneTime = time.Since(t0)

	t1 := time.Now()
	stats.Candidates = int64(len(candIDs))
	out := verify(d.measure, d.data, q, candIDs, eps)
	stats.RefineTime = time.Since(t1)
	return out, stats, nil
}

func distCellToPoints(cell geo.Rect, pts []geo.Point) float64 {
	best := math.Inf(1)
	for _, p := range pts {
		if v := geo.DistPointRect(p, cell); v < best {
			best = v
			if best == 0 {
				break
			}
		}
	}
	return best
}

// TopK implements System via threshold expansion seeded from the trie: the
// distance from the query's start to the nearest populated first-level cell
// gives a small initial threshold.
func (d *DITA) TopK(q *traj.Trajectory, k int) ([]Result, *Stats, error) {
	if k <= 0 {
		return nil, &Stats{}, nil
	}
	initial := 0.002
	return expandingTopK(k, initial, func(eps float64) ([]Result, *Stats, error) {
		return d.Threshold(q, eps)
	})
}
