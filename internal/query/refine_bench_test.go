package query

import (
	"testing"

	"repro/internal/dist"
)

// The refinement benchmarks measure the executor on a refinement-dominated
// threshold workload: a cluster of near-duplicate trajectories where every
// stored row survives filtering and pays for a full distance computation.
// End to end, the same cost is the repo benchmark's topk_refine workload
// (benchmark/README.md).

const (
	benchRefineRows = 250 // candidates refined per query (≥ 200 per the gate)
	benchRefinePts  = 120 // points per trajectory: DTW cost is O(pts²)
)

func benchmarkRefine(b *testing.B, workers int) {
	for _, measure := range []dist.Measure{dist.Frechet, dist.Hausdorff, dist.DTW} {
		measure := measure
		b.Run(measure.String(), func(b *testing.B) {
			f, base := refineFixture(b, benchRefineRows, benchRefinePts, 91)
			f.engine = New(f.store, measure)
			f.engine.refineWorkers = workers
			eps := 0.02
			if measure == dist.DTW {
				eps = 0.5 // DTW accumulates; admit the whole cluster
			}
			// Warm up and sanity-check the candidate count once.
			_, stats, err := f.engine.ThresholdContext(bg, base, eps)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Refined < 200 {
				b.Fatalf("workload refines only %d candidates; the benchmark needs ≥ 200", stats.Refined)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.engine.ThresholdContext(bg, base, eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefineSeq is the sequential baseline: one refinement worker.
func BenchmarkRefineSeq(b *testing.B) { benchmarkRefine(b, 1) }

// BenchmarkRefinePar runs the same workload with four refinement workers;
// the CI gate expects ≥ 2x over BenchmarkRefineSeq on DTW.
func BenchmarkRefinePar(b *testing.B) { benchmarkRefine(b, 4) }
