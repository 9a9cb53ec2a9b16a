package query

import (
	"context"

	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// topK runs the best-first top-k similarity search of Algorithm 4, seeded
// from the element the query's own MBR indexes at: elements are ordered by
// minDistEE, their index spaces by minDistIS after Lemmas 10-11 at the
// current threshold, the pushed-down local filter follows the kth distance,
// and each drain's survivors are refined in order of their Lemma 12-14 bound
// by the measure's bounded kernel.
func (e *Engine) topK(ctx context.Context, snap *store.Snapshot, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	qg := e.prepare(q.Traj)
	ix := e.store.Index()
	// The element the query's own MBR indexes at: same-shaped trajectories
	// live there, so it seeds the bound, and elements near its resolution
	// are the most promising, so it breaks minDistEE ties.
	see := ix.SEE(qg.xq.MBR)
	prefRes := see.Len()

	return e.bestFirst(ctx, snap, q.K, frontier{
		elemBound: func(s xzstar.Seq) (float64, int) {
			tie := s.Len() - prefRes
			if tie < 0 {
				tie = -tie
			}
			return xzstar.MinDistEE(qg.xq.MBR, s.Element()), tie
		},
		spaces: func(s xzstar.Seq, eps float64, emit func(int64, float64)) {
			for _, sp := range ix.CandidateSpaces(s, qg.xq, eps) {
				emit(sp.Value, sp.Dist)
			}
		},
		seed:   see,
		window: q.Window,
		lower: func(v traj.RecordView, s *filterScratch, cutoff float64) (float64, bool) {
			return localBound(qg, e.measure, v, s, cutoff)
		},
		exact: func(rec *traj.Record, bound float64, row []float64) (float64, bool, []float64) {
			return e.kernel(qg.points, rec.Points, bound, row)
		},
	}, sink)
}
