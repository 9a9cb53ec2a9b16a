package xzstar

import (
	"math"

	"repro/internal/geo"
)

// Global pruning (Section V-C): turn a query trajectory and a threshold into
// a small set of contiguous index-value ranges that provably contain every
// similar trajectory. Lemmas 6-11 each remove a class of index spaces; all of
// them reduce to Lemma 5 (a single far-away point proves dissimilarity).

// Query is the pre-computed geometry of a query trajectory used by pruning.
type Query struct {
	Points []geo.Point
	MBR    geo.Rect
	Boxes  []geo.Rect // DP feature boxes; optional accelerator for quad tests
}

// NewQuery builds a Query from a point sequence, optionally with DP feature
// boxes. It panics on an empty point sequence.
func NewQuery(pts []geo.Point, boxes []geo.Rect) *Query {
	return &Query{Points: pts, MBR: geo.MBRPoints(pts), Boxes: boxes}
}

// quadFar reports whether every point of the query is farther than eps from
// quad. Checks run cheapest-first (Section V-E: "execute lemmas from simple
// to complex"): MBR, then DP boxes, then the exact point set. Each stage only
// ever under-estimates the true point distance, so a positive answer is
// always sound evidence for Lemma 10.
func (q *Query) quadFar(quad geo.Rect, eps float64) bool {
	if geo.DistRectRect(quad, q.MBR) > eps {
		return true
	}
	if len(q.Boxes) > 0 {
		far := true
		for _, b := range q.Boxes {
			if geo.DistRectRect(quad, b) <= eps {
				far = false
				break
			}
		}
		if far {
			return true
		}
	}
	for _, p := range q.Points {
		if geo.DistPointRect(p, quad) <= eps {
			return false
		}
	}
	return true
}

// MinDistEE computes Definition 10: the largest, over the four edges of the
// query's MBR, of the minimum distance from that edge to the enlarged
// element. Every MBR edge carries at least one trajectory point, so this
// lower-bounds the similarity distance to any trajectory inside the element
// (Lemma 9).
func MinDistEE(qmbr geo.Rect, element geo.Rect) float64 {
	worst := 0.0
	for _, e := range qmbr.Edges() {
		// MBR edges are axis-parallel, so the distance from the edge to the
		// element equals the rect-rect distance of its bounds (exact, cheap).
		d := geo.DistRectRect(geo.SegmentBounds(geo.Segment(e)), element)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// MinDistIS computes Definition 11 for the index space made of the quads
// selected by mask: the largest, over the query MBR's edges, of the minimum
// distance from that edge to the union of the member quads (Lemma 11).
func MinDistIS(qmbr geo.Rect, quads *[4]geo.Rect, mask QuadMask) float64 {
	worst := 0.0
	for _, e := range qmbr.Edges() {
		eb := geo.SegmentBounds(geo.Segment(e))
		best := math.Inf(1)
		for i := 0; i < 4; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			if d := geo.DistRectRect(eb, quads[i]); d < best {
				best = d
				if best == 0 {
					break
				}
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}

// PruneStats reports what global pruning did; the Fig. 11 experiments read
// these counters.
type PruneStats struct {
	ElementsVisited int  // elements popped from the work queue
	ElementsPruned  int  // elements discarded by Lemmas 8/9
	CodesExamined   int  // position codes considered
	CodesEmitted    int  // index spaces that survived Lemmas 10/11
	SubtreesEmitted int  // whole-prefix ranges emitted when the budget ran out
	Truncated       bool // the element budget was hit
}

// DefaultElementBudget bounds how many elements one query may expand before
// the planner falls back to whole-subtree ranges. Falling back is sound: it
// can only widen the scan, never lose a similar trajectory.
const DefaultElementBudget = 8192

// minResolution returns MinR of Definition 8: the resolution of the smallest
// enlarged element covering Ext(Q.MBR, eps).
func (ix *Index) minResolution(q *Query, eps float64) int {
	return ix.SEE(q.MBR.Buffer(eps)).Len()
}

// maxResolution returns MaxR of Definition 9: the deepest resolution whose
// enlarged elements are still large enough that a trajectory inside one can
// reach every edge of the query's MBR within eps.
func (ix *Index) maxResolution(q *Query, eps float64) int {
	maxExt := math.Max(q.MBR.Width(), q.MBR.Height())
	// An element at resolution R has side 2·0.5^R; Definition 9 needs
	// (maxExt − 2·0.5^R)/2 ≤ eps, i.e. 0.5^R ≥ (maxExt − 2·eps)/2.
	need := (maxExt - 2*eps) / 2
	if need <= 0 {
		return ix.maxRes
	}
	r := int(math.Floor(math.Log(need) / math.Log(0.5)))
	if r < 1 {
		r = 1
	}
	if r > ix.maxRes {
		r = ix.maxRes
	}
	for r > 1 && math.Pow(0.5, float64(r)) < need {
		r--
	}
	for r < ix.maxRes && math.Pow(0.5, float64(r+1)) >= need {
		r++
	}
	return r
}

// GlobalPrune runs Algorithm 1: walk the element tree from the four roots,
// discard elements by Lemmas 6-9, discard position codes by Lemmas 10-11,
// and return the surviving index spaces as merged value ranges.
//
// budget <= 0 selects DefaultElementBudget.
//
// One deliberate deviation from the paper's statement of Lemma 6: the paper
// prunes every element with resolution below MinR, but at exactly MinR−1 a
// similar trajectory can still be indexed (its MBR may straddle cell
// boundaries that force the coarser element). We therefore emit codes from
// MinR−1 upward; the per-code Lemmas 10-11 still remove nearly all of them.
func (ix *Index) GlobalPrune(q *Query, eps float64, budget int) ([]ValueRange, PruneStats) {
	return ix.GlobalPruneOpts(q, eps, budget, PruneOptions{})
}

// PruneOptions disable individual pruning stages for ablation studies.
type PruneOptions struct {
	// DisableCodePruning emits every position code of a surviving element,
	// skipping Lemmas 10-11. The result behaves like plain XZ-Ordering with
	// element-level pruning only — the ablation that isolates what position
	// codes buy.
	DisableCodePruning bool
}

// GlobalPruneOpts is GlobalPrune with stage toggles.
func (ix *Index) GlobalPruneOpts(q *Query, eps float64, budget int, opts PruneOptions) ([]ValueRange, PruneStats) {
	if budget <= 0 {
		budget = DefaultElementBudget
	}
	var stats PruneStats
	ext := clampRect(q.MBR.Buffer(eps))
	minR := ix.minResolution(q, eps)
	maxR := ix.maxResolution(q, eps)
	emitFrom := minR - 1
	if emitFrom < 1 {
		emitFrom = 1
	}

	var ranges []ValueRange
	queue := make([]Seq, 0, 64)
	for d := byte(0); d < 4; d++ {
		queue = append(queue, SeqOf(d))
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		stats.ElementsVisited++

		elem := s.Element()
		if !elem.Intersects(ext) { // Lemma 8
			stats.ElementsPruned++
			continue
		}
		if MinDistEE(q.MBR, elem) > eps { // Lemma 9
			stats.ElementsPruned++
			continue
		}

		l := s.Len()
		if l >= emitFrom {
			if opts.DisableCodePruning {
				start := ix.start(s)
				n := int64(9)
				if l == ix.maxRes {
					n = 10
				}
				ranges = append(ranges, ValueRange{Lo: start, Hi: start + n})
				stats.CodesEmitted += int(n)
			} else {
				ranges = ix.emitCodes(s, q, eps, ranges, &stats)
			}
		}
		if l >= maxR || l >= ix.maxRes { // Lemma 7
			continue
		}
		if stats.ElementsVisited >= budget {
			// Budget exhausted: cover the rest of this subtree with its
			// contiguous prefix ranges instead of expanding further.
			stats.Truncated = true
			for d := byte(0); d < 4; d++ {
				c := s.Child(d)
				ce := c.Element()
				if !ce.Intersects(ext) || MinDistEE(q.MBR, ce) > eps {
					continue
				}
				ranges = append(ranges, ix.PrefixRange(c))
				stats.SubtreesEmitted++
			}
			continue
		}
		for d := byte(0); d < 4; d++ {
			queue = append(queue, s.Child(d))
		}
	}
	return mergeRanges(ranges), stats
}

// emitCodes applies Lemmas 10-11 to the position codes of element s and
// appends the surviving index values as unit ranges.
func (ix *Index) emitCodes(s Seq, q *Query, eps float64, ranges []ValueRange, stats *PruneStats) []ValueRange {
	quads := s.Quads()
	var farMask QuadMask
	for i := 0; i < 4; i++ {
		if q.quadFar(quads[i], eps) {
			farMask |= 1 << i
		}
	}
	atMax := s.Len() == ix.maxRes
	for _, code := range AllCodes(atMax) {
		stats.CodesExamined++
		if code.Mask()&farMask != 0 { // Lemma 10
			continue
		}
		if MinDistIS(q.MBR, &quads, code.Mask()) > eps { // Lemma 11
			continue
		}
		v := ix.Value(s, code)
		ranges = append(ranges, ValueRange{Lo: v, Hi: v + 1})
		stats.CodesEmitted++
	}
	return ranges
}

// SpaceCand is a candidate index space produced for best-first top-k search,
// carrying the minDistIS lower bound used to order the priority queue.
type SpaceCand struct {
	Value int64
	Code  PosCode
	Dist  float64
}

// CandidateSpaces returns the index spaces of element s that survive
// Lemma 10 at threshold eps, each with its minDistIS lower bound. Pass
// eps = +Inf to rank all spaces without threshold pruning (top-k warm-up).
func (ix *Index) CandidateSpaces(s Seq, q *Query, eps float64) []SpaceCand {
	quads := s.Quads()
	var farMask QuadMask
	if !math.IsInf(eps, 1) {
		for i := 0; i < 4; i++ {
			if q.quadFar(quads[i], eps) {
				farMask |= 1 << i
			}
		}
	}
	atMax := s.Len() == ix.maxRes
	var out []SpaceCand
	for _, code := range AllCodes(atMax) {
		if code.Mask()&farMask != 0 {
			continue
		}
		d := MinDistIS(q.MBR, &quads, code.Mask())
		if d > eps {
			continue
		}
		out = append(out, SpaceCand{Value: ix.Value(s, code), Code: code, Dist: d})
	}
	return out
}

// RootSeqs returns the four resolution-1 sequences, the children of the root
// in Algorithm 1.
func RootSeqs() []Seq {
	return []Seq{SeqOf(0), SeqOf(1), SeqOf(2), SeqOf(3)}
}
