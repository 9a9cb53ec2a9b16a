package baselines

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/oracle"
	"repro/internal/traj"
)

func walk(rng *rand.Rand, id string, n int, scale float64) *traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := rng.Float64(), rng.Float64()
	for i := range pts {
		pts[i] = geo.Point{X: geo.Clamp01(x), Y: geo.Clamp01(y)}
		x += (rng.Float64() - 0.5) * scale
		y += (rng.Float64() - 0.5) * scale
	}
	return traj.New(id, pts)
}

func dataset(seed int64, n int) []*traj.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*traj.Trajectory, 0, n+n/10*2)
	for i := 0; i < n; i++ {
		scale := []float64{0.003, 0.01, 0.05}[rng.Intn(3)]
		out = append(out, walk(rng, fmt.Sprintf("t%05d", i), 5+rng.Intn(30), scale))
	}
	// Similar clusters so queries have matches.
	for c := 0; c < n/10; c++ {
		base := out[rng.Intn(n)]
		for j := 0; j < 2; j++ {
			pts := make([]geo.Point, len(base.Points))
			for i, p := range base.Points {
				pts[i] = geo.Point{
					X: geo.Clamp01(p.X + (rng.Float64()-0.5)*0.003),
					Y: geo.Clamp01(p.Y + (rng.Float64()-0.5)*0.003),
				}
			}
			out = append(out, traj.New(fmt.Sprintf("c%05d-%d", c, j), pts))
		}
	}
	return out
}

// answer puts a system's answer in the oracle's terms. The systems order
// matches by distance but promise no order among equal distances, so each
// run of equal distances is put in id order, as in the oracle's ranking.
// The order by distance is left as the system returned it, so Diff still
// sees a top-k answer out of distance order.
func answer(rs []Result) []oracle.Match {
	ms := make([]oracle.Match, len(rs))
	for i, r := range rs {
		ms[i] = oracle.Match{ID: r.ID, Distance: r.Distance}
	}
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && !(ms[j].Distance < ms[i].Distance || ms[j].Distance > ms[i].Distance) {
			j++
		}
		oracle.ByID(ms[i:j])
		i = j
	}
	return ms
}

// newSystem builds a fresh system of the named kind over the dataset.
func newSystem(t *testing.T, name string, measure dist.Measure, trajs []*traj.Trajectory) System {
	t.Helper()
	var sys System
	switch name {
	case "DFT":
		sys = NewDFT(measure)
	case "DITA":
		sys = NewDITA(measure)
	case "REPOSE":
		sys = NewREPOSE(measure)
	case "JUST":
		sys = NewJUST(measure, t.TempDir())
	default:
		t.Fatalf("unknown system %s", name)
	}
	if _, err := sys.Build(trajs); err != nil {
		t.Fatalf("%s build: %v", name, err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func TestThresholdCorrectness(t *testing.T) {
	trajs := oracle.Stored(dataset(7, 150))
	rng := rand.New(rand.NewSource(8))
	for _, name := range []string{"DFT", "DITA", "JUST"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sys := newSystem(t, name, dist.Frechet, trajs)
			for qi := 0; qi < 5; qi++ {
				q := walk(rng, "q", 10, 0.01)
				if qi%2 == 0 {
					q = traj.New("q", trajs[rng.Intn(len(trajs))].Points)
				}
				eps := []float64{0.005, 0.02}[qi%2]
				got, stats, err := sys.Threshold(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				want := oracle.Threshold(dist.Frechet, trajs, q.Points, eps, oracle.Window{})
				if d := oracle.Diff(oracle.ByID(answer(got)), want); d != "" {
					t.Fatalf("query %d: %s (stats %+v)", qi, d, stats)
				}
			}
		})
	}
}

func TestTopKCorrectness(t *testing.T) {
	trajs := oracle.Stored(dataset(9, 120))
	rng := rand.New(rand.NewSource(10))
	for _, name := range []string{"DFT", "DITA", "REPOSE", "JUST"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sys := newSystem(t, name, dist.Frechet, trajs)
			for qi := 0; qi < 4; qi++ {
				q := traj.New("q", trajs[rng.Intn(len(trajs))].Points)
				k := []int{1, 10}[qi%2]
				got, stats, err := sys.TopK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := oracle.TopK(dist.Frechet, trajs, q.Points, k, oracle.Window{})
				if d := oracle.Diff(answer(got), want); d != "" {
					t.Fatalf("query %d k=%d: %s (stats %+v)", qi, k, d, stats)
				}
			}
		})
	}
}

func TestMeasureSupportMatrix(t *testing.T) {
	trajs := dataset(11, 30)
	// DFT: no DTW.
	if _, err := NewDFT(dist.DTW).Build(trajs); !IsUnsupported(err) {
		t.Errorf("DFT must reject DTW, got %v", err)
	}
	// DITA: no Hausdorff.
	if _, err := NewDITA(dist.Hausdorff).Build(trajs); !IsUnsupported(err) {
		t.Errorf("DITA must reject Hausdorff, got %v", err)
	}
	// REPOSE: no DTW, no threshold search.
	if _, err := NewREPOSE(dist.DTW).Build(trajs); !IsUnsupported(err) {
		t.Errorf("REPOSE must reject DTW, got %v", err)
	}
	rp := NewREPOSE(dist.Frechet)
	if _, err := rp.Build(trajs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rp.Threshold(trajs[0], 0.01); !IsUnsupported(err) {
		t.Errorf("REPOSE must reject threshold search, got %v", err)
	}
}

func TestHausdorffSystems(t *testing.T) {
	trajs := oracle.Stored(dataset(12, 80))
	rng := rand.New(rand.NewSource(13))
	q := traj.New("q", trajs[rng.Intn(len(trajs))].Points)

	want := oracle.Threshold(dist.Hausdorff, trajs, q.Points, 0.01, oracle.Window{})
	for _, name := range []string{"DFT", "JUST"} {
		sys := newSystem(t, name, dist.Hausdorff, trajs)
		got, _, err := sys.Threshold(q, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := oracle.Diff(oracle.ByID(answer(got)), want); d != "" {
			t.Fatalf("%s hausdorff: %s", name, d)
		}
	}
	rp := newSystem(t, "REPOSE", dist.Hausdorff, trajs)
	got, _, err := rp.TopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Diff(answer(got), oracle.TopK(dist.Hausdorff, trajs, q.Points, 5, oracle.Window{})); d != "" {
		t.Fatalf("REPOSE hausdorff: %s", d)
	}
}

func TestDTWSystems(t *testing.T) {
	trajs := oracle.Stored(dataset(14, 80))
	rng := rand.New(rand.NewSource(15))
	q := traj.New("q", trajs[rng.Intn(len(trajs))].Points)
	want := oracle.Threshold(dist.DTW, trajs, q.Points, 0.05, oracle.Window{})
	for _, name := range []string{"DITA", "JUST"} {
		sys := newSystem(t, name, dist.DTW, trajs)
		got, _, err := sys.Threshold(q, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := oracle.Diff(oracle.ByID(answer(got)), want); d != "" {
			t.Fatalf("%s dtw: %s", name, d)
		}
	}
}

func TestDuplicateIDsRejected(t *testing.T) {
	trajs := dataset(16, 10)
	dup := append(trajs, trajs[0])
	if _, err := NewDFT(dist.Frechet).Build(dup); err == nil {
		t.Error("DFT must reject duplicate ids")
	}
	if _, err := NewDITA(dist.Frechet).Build(dup); err == nil {
		t.Error("DITA must reject duplicate ids")
	}
	if _, err := NewREPOSE(dist.Frechet).Build(dup); err == nil {
		t.Error("REPOSE must reject duplicate ids")
	}
}

func TestTopKEdgeCases(t *testing.T) {
	trajs := oracle.Stored(dataset(17, 25))
	everything := oracle.TopK(dist.Frechet, trajs, trajs[0].Points, len(trajs), oracle.Window{})
	for _, name := range []string{"DFT", "DITA", "REPOSE", "JUST"} {
		sys := newSystem(t, name, dist.Frechet, trajs)
		// k = 0.
		got, _, err := sys.TopK(trajs[0], 0)
		if err != nil || len(got) != 0 {
			t.Fatalf("%s k=0: %v %v", name, got, err)
		}
		// k > dataset size.
		got, _, err = sys.TopK(trajs[0], 10*len(trajs))
		if err != nil {
			t.Fatal(err)
		}
		if d := oracle.Diff(answer(got), everything); d != "" {
			t.Fatalf("%s k>n: %s", name, d)
		}
	}
}

// The paper's central comparison: TraSS-style fine pruning must examine fewer
// candidates than JUST's coarse MBR-based filtering. Here we verify the
// baseline half: JUST's candidates are never fewer than the true answers.
func TestJUSTCandidatesAreCoarse(t *testing.T) {
	trajs := dataset(18, 200)
	sys := newSystem(t, "JUST", dist.Frechet, trajs)
	rng := rand.New(rand.NewSource(19))
	q := traj.New("q", trajs[rng.Intn(len(trajs))].Points)
	res, stats, err := sys.Threshold(q, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates < int64(len(res)) {
		t.Fatalf("candidates %d < results %d", stats.Candidates, len(res))
	}
}
