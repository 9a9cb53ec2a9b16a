// Package dist implements the trajectory similarity measures used by TraSS:
// discrete Fréchet distance (the paper's default, Definition 2), Hausdorff
// distance (Definition 12) and Dynamic Time Warping (Definition 13), each
// with a full-distance form and a bounded form that abandons early once the
// measure provably exceeds a bound and returns the exact distance otherwise.
package dist

import (
	"math"

	"repro/internal/geo"
)

// Measure identifies a similarity measure.
type Measure int

const (
	Frechet Measure = iota
	Hausdorff
	DTW
)

// String returns the measure's conventional name.
func (m Measure) String() string {
	switch m {
	case Frechet:
		return "frechet"
	case Hausdorff:
		return "hausdorff"
	case DTW:
		return "dtw"
	default:
		return "unknown"
	}
}

// Func is the f(Q,T) of the paper: the full similarity distance between two
// point sequences.
type Func func(q, t []geo.Point) float64

// For returns the distance function for m. It panics on an unknown measure:
// measure selection is a configuration-time decision, never data-driven.
func For(m Measure) Func {
	switch m {
	case Frechet:
		return DiscreteFrechet
	case Hausdorff:
		return HausdorffDist
	case DTW:
		return DTWDist
	default:
		panic("dist: unknown measure")
	}
}

// BoundedFunc computes f(Q,T) against a bound: ok reports f(Q,T) <= bound,
// and when it does d is bit-identical to For(m)(q, t). When it does not the
// kernel may have abandoned early and d is unspecified. bound = +Inf never
// abandons. scratch is a DP row the caller lends (nil is fine); the possibly
// grown row comes back so one row serves every pair a worker refines.
type BoundedFunc func(q, t []geo.Point, bound float64, scratch []float64) (d float64, ok bool, _ []float64)

// BoundedFor returns the bounded kernel for m.
func BoundedFor(m Measure) BoundedFunc {
	switch m {
	case Frechet:
		return frechetBounded
	case Hausdorff:
		return hausdorffBounded
	case DTW:
		return dtwBounded
	default:
		panic("dist: unknown measure")
	}
}

// WithinFunc decides f(Q,T) <= eps, potentially much faster than computing
// the full distance.
type WithinFunc func(q, t []geo.Point, eps float64) bool

// WithinFor returns the threshold-decision function for m.
func WithinFor(m Measure) WithinFunc {
	switch m {
	case Frechet:
		return FrechetWithin
	case Hausdorff:
		return HausdorffWithin
	case DTW:
		return DTWWithin
	default:
		panic("dist: unknown measure")
	}
}

// within is the decision form of a bounded kernel. An empty side is never
// within anything.
func within(kernel BoundedFunc, q, t []geo.Point, eps float64) bool {
	if len(q) == 0 || len(t) == 0 {
		return false
	}
	_, ok, _ := kernel(q, t, eps, nil)
	return ok
}

// rowOf returns a DP row of length m carved from scratch, growing it if
// needed.
func rowOf(scratch []float64, m int) []float64 {
	if cap(scratch) < m {
		return make([]float64, m)
	}
	return scratch[:m]
}

// SupportsEndpointLemma reports whether Lemma 12 (start/end points must match
// within eps) holds for m. It holds for Fréchet and DTW but not Hausdorff
// (Section VII-A).
func SupportsEndpointLemma(m Measure) bool { return m != Hausdorff }

// fmin and fmax are branch-based min/max: math.Min/Max are not inlined and
// handle NaN/±0 cases these DP loops never see, so they cost ~3x more.
func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// DiscreteFrechet computes the discrete Fréchet distance between q and t by
// dynamic programming over the coupling matrix, O(n·m) time, O(m) space.
func DiscreteFrechet(q, t []geo.Point) float64 {
	n, m := len(q), len(t)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	// row[j] = D_F(q[:i+1], t[:j+1]) for the current i.
	row := make([]float64, m)
	row[0] = q[0].Dist(t[0])
	for j := 1; j < m; j++ {
		row[j] = fmax(row[j-1], q[0].Dist(t[j]))
	}
	for i := 1; i < n; i++ {
		prevDiag := row[0] // D_F(q[:i], t[:1])
		row[0] = fmax(row[0], q[i].Dist(t[0]))
		for j := 1; j < m; j++ {
			d := q[i].Dist(t[j])
			best := fmin(prevDiag, fmin(row[j], row[j-1]))
			prevDiag = row[j]
			row[j] = fmax(best, d)
		}
	}
	return row[m-1]
}

// FrechetWithin reports whether the discrete Fréchet distance between q and t
// is at most eps.
func FrechetWithin(q, t []geo.Point, eps float64) bool { return within(frechetBounded, q, t, eps) }

// frechetBounded runs DiscreteFrechet's DP with every cell above bound
// clamped to +Inf, and abandons as soon as an entire row is infeasible. The
// DP only takes maxima and minima of point distances, so a cell that survives
// the clamp holds exactly the value the unclamped DP would.
func frechetBounded(q, t []geo.Point, bound float64, scratch []float64) (float64, bool, []float64) {
	n, m := len(q), len(t)
	inf := math.Inf(1)
	if n == 0 || m == 0 {
		return inf, math.IsInf(bound, 1), scratch
	}
	// Cheap necessary conditions first (Lemma 12).
	if q[0].Dist(t[0]) > bound || q[n-1].Dist(t[m-1]) > bound {
		return inf, false, scratch
	}
	row := rowOf(scratch, m)
	row[0] = q[0].Dist(t[0])
	for j := 1; j < m; j++ {
		if math.IsInf(row[j-1], 1) {
			row[j] = inf
			continue
		}
		d := fmax(row[j-1], q[0].Dist(t[j]))
		if d > bound {
			d = inf
		}
		row[j] = d
	}
	for i := 1; i < n; i++ {
		prevDiag := row[0]
		first := fmax(row[0], q[i].Dist(t[0]))
		if first > bound {
			first = inf
		}
		row[0] = first
		feasible := !math.IsInf(first, 1)
		for j := 1; j < m; j++ {
			best := fmin(prevDiag, fmin(row[j], row[j-1]))
			prevDiag = row[j]
			if math.IsInf(best, 1) {
				row[j] = inf
				continue
			}
			d := fmax(best, q[i].Dist(t[j]))
			if d > bound {
				d = inf
			} else {
				feasible = true
			}
			row[j] = d
		}
		if !feasible {
			return inf, false, row
		}
	}
	return row[m-1], !math.IsInf(row[m-1], 1), row
}

// HausdorffDist computes the symmetric Hausdorff distance between q and t.
func HausdorffDist(q, t []geo.Point) float64 {
	return math.Max(directedHausdorff(q, t, math.Inf(1)), directedHausdorff(t, q, math.Inf(1)))
}

// directedHausdorff returns max_{p in a} min_{r in b} d(p,r), abandoning with
// +inf once the running max exceeds bound.
func directedHausdorff(a, b []geo.Point, bound float64) float64 {
	worst := 0.0
	for _, p := range a {
		best := math.Inf(1)
		for _, r := range b {
			if d := p.Dist2(r); d < best {
				best = d
				if best == 0 {
					break
				}
			}
		}
		if best > worst {
			worst = best
			if math.Sqrt(worst) > bound {
				return math.Inf(1)
			}
		}
	}
	return math.Sqrt(worst)
}

// HausdorffWithin reports whether the Hausdorff distance is at most eps.
func HausdorffWithin(q, t []geo.Point, eps float64) bool { return within(hausdorffBounded, q, t, eps) }

// hausdorffBounded is HausdorffDist with both directed passes abandoning at
// bound; it needs no DP row.
func hausdorffBounded(q, t []geo.Point, bound float64, scratch []float64) (float64, bool, []float64) {
	qt := directedHausdorff(q, t, bound)
	if qt > bound {
		return qt, false, scratch
	}
	tq := directedHausdorff(t, q, bound)
	if tq > bound {
		return tq, false, scratch
	}
	return math.Max(qt, tq), true, scratch
}

// DTWDist computes the Dynamic Time Warping distance (sum of matched
// Euclidean distances, Definition 13), O(n·m) time, O(m) space.
func DTWDist(q, t []geo.Point) float64 {
	n, m := len(q), len(t)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	row := make([]float64, m)
	row[0] = q[0].Dist(t[0])
	for j := 1; j < m; j++ {
		row[j] = row[j-1] + q[0].Dist(t[j])
	}
	for i := 1; i < n; i++ {
		prevDiag := row[0]
		row[0] += q[i].Dist(t[0])
		for j := 1; j < m; j++ {
			best := fmin(prevDiag, fmin(row[j], row[j-1]))
			prevDiag = row[j]
			row[j] = best + q[i].Dist(t[j])
		}
	}
	return row[m-1]
}

// DTWWithin reports whether the DTW distance is at most eps.
func DTWWithin(q, t []geo.Point, eps float64) bool { return within(dtwBounded, q, t, eps) }

// dtwBounded is DTWDist's DP, abandoning once a whole row exceeds bound:
// DTW accumulates, so a row whose minimum is already past the bound proves
// the whole distance is.
func dtwBounded(q, t []geo.Point, bound float64, scratch []float64) (float64, bool, []float64) {
	n, m := len(q), len(t)
	if n == 0 || m == 0 {
		return math.Inf(1), math.IsInf(bound, 1), scratch
	}
	row := rowOf(scratch, m)
	row[0] = q[0].Dist(t[0])
	for j := 1; j < m; j++ {
		row[j] = row[j-1] + q[0].Dist(t[j])
	}
	for i := 1; i < n; i++ {
		prevDiag := row[0]
		row[0] += q[i].Dist(t[0])
		rowMin := row[0]
		for j := 1; j < m; j++ {
			best := fmin(prevDiag, fmin(row[j], row[j-1]))
			prevDiag = row[j]
			row[j] = best + q[i].Dist(t[j])
			if row[j] < rowMin {
				rowMin = row[j]
			}
		}
		if rowMin > bound {
			return rowMin, false, row
		}
	}
	return row[m-1], row[m-1] <= bound, row
}
