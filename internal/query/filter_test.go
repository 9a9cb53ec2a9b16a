package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// rowSections splits a row value into its four sections, and joinRow puts
// sections back behind their length prefixes — the framing EncodeRecord
// writes, so a test can damage the inside of one section and nothing else.
func rowSections(t *testing.T, value []byte) (secs [4][]byte) {
	t.Helper()
	for i := range secs {
		n, sz := binary.Uvarint(value)
		if sz <= 0 || uint64(len(value)-sz) < n {
			t.Fatalf("section %d of a well-formed row does not frame", i)
		}
		secs[i], value = value[sz:sz+int(n)], value[sz+int(n):]
	}
	return secs
}

func joinRow(secs [4][]byte) []byte {
	var out []byte
	for _, s := range secs {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// The unparseable-row contract (DESIGN §8): a row whose bytes do not parse
// either reaches a worker's decode, which fails the query with the decode
// error, or is rejected by the filter on bytes that did parse, and then the
// answer is the answer over the well-formed rows. Nothing panics or hangs.
// Where the outcome is known it is pinned: damaged rows beside the query are
// read past their first point, so they ship and fail it; a query whose
// neighbours all differ in their first point never learns they are damaged.
func TestUnparseableRowContract(t *testing.T) {
	damages := []struct {
		name   string
		damage func(t *testing.T, value []byte) []byte
	}{
		{"points truncated mid-varint", func(t *testing.T, value []byte) []byte {
			secs := rowSections(t, value)
			pts := append([]byte(nil), secs[1][:len(secs[1])-1]...)
			pts[len(pts)-1] |= 0x80 // the last varint now wants a byte that is not there
			secs[1] = pts
			return joinRow(secs)
		}},
		{"feature count larger than its section", func(t *testing.T, value []byte) []byte {
			secs := rowSections(t, value)
			secs[2] = append(binary.AppendUvarint(nil, 1000), secs[2][1:]...)
			return joinRow(secs)
		}},
		{"timestamp count differs from point count", func(t *testing.T, value []byte) []byte {
			rec, err := traj.DecodeRecord(value)
			if err != nil {
				t.Fatal(err)
			}
			rec.Times = make([]int64, len(rec.Points)-1)
			for i := range rec.Times {
				rec.Times[i] = 1000 + int64(i)
			}
			return traj.EncodeRecord(rec)
		}},
	}
	for _, dm := range damages {
		t.Run(dm.name, func(t *testing.T) {
			st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			rng := rand.New(rand.NewSource(211))
			base := walk(rng, "base", 30, 0.01)
			trajs := []*traj.Trajectory{base}
			for i := 0; i < 40; i++ {
				trajs = append(trajs, nearWalk(rng, base, fmt.Sprintf("near%03d", i), 0.004))
			}
			for i := 0; i < 160; i++ {
				trajs = append(trajs, walk(rng, fmt.Sprintf("far%03d", i), 5+rng.Intn(30), 0.01))
			}
			if err := st.PutBatch(trajs); err != nil {
				t.Fatal(err)
			}

			// Every fifth row is damaged in place: near ones, which the
			// filters must read deep into, and far ones, which fall early.
			var good []*traj.Trajectory
			for i, row := range allRows(t, st) {
				if i%5 == 0 {
					if err := st.Cluster().Put(row.Key, dm.damage(t, row.Value)); err != nil {
						t.Fatal(err)
					}
					continue
				}
				rec, err := store.DecodeRow(row.Value)
				if err != nil {
					t.Fatal(err)
				}
				good = append(good, &traj.Trajectory{ID: rec.ID, Points: rec.Points, Times: rec.Times})
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}

			eng := New(st, dist.Frechet)
			eng.refineWorkers = 2
			window := geo.MBRPoints(base.Points)
			everything := TimeWindow{Start: 1, End: math.MaxInt64}
			lone := good[len(good)-1] // a well-formed far row
			const either, fails, answers = 0, 1, 2
			for _, tc := range []struct {
				name    string
				q       Query
				outcome int
			}{
				{"threshold", Query{Kind: KindThreshold, Traj: base, Eps: 0.005}, fails},
				{"threshold windowed", Query{Kind: KindThreshold, Traj: base, Eps: 0.005, Window: everything}, fails},
				{"threshold nowhere near", Query{Kind: KindThreshold, Traj: traj.New("q", []geo.Point{{X: 0.99, Y: 0.01}}), Eps: 1e-6}, answers},
				{"threshold on a lone row", Query{Kind: KindThreshold, Traj: &traj.Trajectory{ID: "q", Points: lone.Points}, Eps: 1e-6}, answers},
				{"top-k", Query{Kind: KindTopK, Traj: base, K: 10}, either},
				{"top-k windowed", Query{Kind: KindTopK, Traj: base, K: 10, Window: everything}, either},
				{"range", Query{Kind: KindRange, Rect: window}, either},
				{"nearest", Query{Kind: KindNearest, Point: base.Points[0], K: 10}, either},
			} {
				got, _, err := eng.Search(bg, tc.q, nil)
				if (err != nil && tc.outcome == answers) || (err == nil && tc.outcome == fails) {
					t.Errorf("%s: err = %v", tc.name, err)
				}
				if err != nil {
					if !strings.Contains(err.Error(), "traj:") {
						t.Errorf("%s: failed with %v, which is not the decode error", tc.name, err)
					}
					continue
				}
				if d := diffOracle(dist.Frechet, good, tc.q, got); d != "" {
					t.Errorf("%s: answered without an error, but not with the answer over the well-formed rows: %s", tc.name, d)
				}
			}
		})
	}
}

// A query's filter decodes every row it sees into one scratch. Were the
// scratch to carry anything from one row to the next, the set a scan ships
// would drift from what the same predicate decides row by row with a fresh
// start: the filter is run over every region of the store, twice.
func TestFilterScratchIsNotSharedBetweenRegions(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	trajs := gen.TDrive(gen.TDriveOptions{Seed: 7, N: 3000})
	if err := st.PutBatch(trajs); err != nil {
		t.Fatal(err)
	}
	eng := New(st, dist.Frechet)
	qg := eng.prepare(trajs[11])
	pushed := serverFilter(qg, dist.Frechet, gen.DegreesToNorm(0.05))

	want := map[string]bool{}
	for _, row := range allRows(t, st) {
		v, err := traj.ViewRecord(row.Value)
		if err != nil {
			t.Fatal(err)
		}
		if pushed(v, new(filterScratch)) {
			want[string(row.Key)] = true
		}
	}
	if len(want) < 10 || len(want) > len(trajs)/2 {
		t.Fatalf("the filter keeps %d of %d rows; the fixture should keep some and reject most", len(want), len(trajs))
	}

	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	all := []xzstar.ValueRange{{Lo: 0, Hi: math.MaxInt64}}
	filter, _ := wrapWithWindow(TimeWindow{}, pushed)
	for scan := 0; scan < 2; scan++ { // one filter, one scratch: eight regions, twice
		got := map[string]bool{}
		if _, err := snap.ScanRangesStream(bg, all, filter, 0, store.StreamOptions{}, func(batch []kv.Entry) error {
			for _, en := range batch {
				got[string(en.Key)] = true
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scan %d shipped %d rows, the predicate keeps %d", scan, len(got), len(want))
		}
	}
}

// The pushed-down filters allocate nothing per row once their scratch is
// warm — neither on the row most rows are (rejected on its first point) nor
// on one that passes every check and has its point stream walked.
func TestFilterAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	near := walk(rng, "near", 60, 0.01)
	times := make([]int64, near.Len())
	for i := range times {
		times[i] = 5000 + int64(i)
	}
	row := func(tr *traj.Trajectory) []byte {
		return traj.EncodeRecord(&traj.Record{ID: tr.ID, Points: tr.Points, Times: tr.Times,
			Features: traj.ComputeFeatures(tr, 0.01/360)})
	}
	passes := row(traj.NewTimed(near.ID, near.Points, times))
	far := make([]geo.Point, near.Len())
	for i, p := range near.Points {
		far[i] = geo.Point{X: geo.Clamp01(p.X + 0.4), Y: geo.Clamp01(p.Y + 0.4)}
	}
	rejected := row(traj.New("far", far))

	f := traj.ComputeFeatures(near, 0.01/360)
	qg := &queryGeom{points: near.Points, features: f, rep: f.RepPoints(near)}
	for _, tc := range []struct {
		name   string
		window TimeWindow
		pushed rowFilter
	}{
		{"serverFilter", TimeWindow{}, serverFilter(qg, dist.Frechet, 0.001)},
		{"range filter", TimeWindow{}, rangeFilter(geo.MBRPoints(near.Points))},
		{"windowed serverFilter", TimeWindow{Start: 5010, End: 5020}, serverFilter(qg, dist.Frechet, 0.001)},
	} {
		filter, walked := wrapWithWindow(tc.window, tc.pushed)
		for _, r := range []struct {
			name  string
			value []byte
			keep  bool
		}{{"a row rejected on its first point", rejected, false}, {"a row that passes every check", passes, true}} {
			if got := filter(nil, r.value); got != r.keep {
				t.Fatalf("%s on %s: kept = %v", tc.name, r.name, got)
			}
			if (*walked == 1) != r.keep {
				t.Errorf("%s on %s: walked %d point streams", tc.name, r.name, *walked)
			}
			if n := testing.AllocsPerRun(200, func() { filter(nil, r.value) }); n != 0 {
				t.Errorf("%s on %s: %v allocations per row", tc.name, r.name, n)
			}
			*walked = 0
		}
	}
}

// tdriveStore is the 20,000-row store the work-count gates run on.
func tdriveStore(t *testing.T) (*store.Store, []*traj.Trajectory) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	trajs := gen.TDrive(gen.TDriveOptions{Seed: 7, N: 20000})
	if err := st.PutBatch(trajs); err != nil {
		t.Fatal(err)
	}
	return st, trajs
}

// The filter's work as a count, so that tier-1 notices the lemmas being
// re-ordered points-first (every scanned row walked: a ratio of 1) and not
// only the benchmark: of the rows a selective threshold search scans, the
// share whose point stream the filter had to walk. The ceiling is 1.5 × the
// share recorded when the filter first read stored bytes, 0.1005 (37 rows
// walked of 368 scanned; 35 shipped).
func TestFilterWorkCounts(t *testing.T) {
	st, trajs := tdriveStore(t)
	eng := New(st, dist.Frechet)
	const ceiling = 0.151
	var scanned, walked, shipped int64
	for _, q := range gen.Queries(trajs, 7, 32) {
		_, stats, err := eng.ThresholdContext(bg, q, gen.DegreesToNorm(0.005))
		if err != nil {
			t.Fatal(err)
		}
		if stats.RowsWalked < stats.Retrieved || stats.RowsWalked > stats.RowsScanned {
			t.Fatalf("query %s: scanned %d, walked %d, shipped %d", q.ID, stats.RowsScanned, stats.RowsWalked, stats.Retrieved)
		}
		scanned += stats.RowsScanned
		walked += stats.RowsWalked
		shipped += stats.Retrieved
	}
	share := float64(walked) / float64(scanned)
	t.Logf("32 queries: rows scanned %d, walked %d, shipped %d; walked/scanned %.4f", scanned, walked, shipped, share)
	if share > ceiling {
		t.Errorf("RowsWalked/RowsScanned = %.4f, above the ceiling %.3f", share, ceiling)
	}
}
