package query

import (
	"context"
	"math"

	"repro/internal/dist"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// topK runs the best-first top-k similarity search of Algorithm 4: elements
// are ordered by minDistEE, their index spaces by minDistIS after Lemmas
// 10-11 at the current threshold, and the pushed-down local filter follows
// the kth distance live.
func (e *Engine) topK(ctx context.Context, snap *store.Snapshot, q Query, sink func(Result) error) ([]Result, *Stats, error) {
	qg := e.prepare(q.Traj)
	ix := e.store.Index()
	// The resolution the query's own MBR indexes at; elements near it are
	// the most promising, so it breaks minDistEE ties.
	prefRes := ix.SEE(qg.xq.MBR).Len()
	within := dist.WithinFor(e.measure)
	full := dist.For(e.measure)
	bound := newRefineBound(math.Inf(1))

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
		bound:  bound,
		filter: wrapWithWindow(q.Window, serverFilterLive(qg, e.measure, bound)),
		work: func(rec *traj.Record) refineOutcome {
			b := bound.get()
			if !math.IsInf(b, 1) && !within(qg.points, rec.Points, b) {
				return refineOutcome{}
			}
			return refineOutcome{rec: rec, dist: full(qg.points, rec.Points), keep: true}
		},
	}, sink)
}
