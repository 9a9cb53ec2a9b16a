package store_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/kv"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/vfs"
	"repro/internal/xzstar"
)

// Put torture: a deterministic workload of puts and re-puts over four shards,
// with SyncWrites, fails or crashes at every mutating filesystem operation in
// turn. Every trajectory version carries a unique stamp in its timestamps, so
// a stored row names the put that wrote it. After the fault — in the live
// process, after a power loss and reopen, and after one more round of re-puts —
// every id must have at most one data row, holding its acknowledged version or
// one whose put failed, and Get, Count, the pruning value set and a top-k
// search through the engine must all agree with the rows on disk.

const putTortureDir = "/db"

// place is the points of one spot in the plane: every trajectory put there has
// the same index value, so ids at one place share a value.
func place(p int) []geo.Point {
	x := 0.05 + 0.08*float64(p)
	return []geo.Point{{X: x, Y: 0.4}, {X: x + 0.01, Y: 0.41}, {X: x + 0.02, Y: 0.4}}
}

// The mover "m" starts at place 0 and moves on; the witness "w" stays there,
// so a lost value for place 0 would hide w from the engine.
const (
	mover   = "m"
	witness = "w"
)

// putModel is what the workload was told: per id, the stamp of the
// acknowledged version and of every put that failed since.
type putModel struct {
	acked   map[string]int64
	pending map[string][]int64
	places  map[int64]int // stamp → place
	stamp   int64
	crashed bool
}

func (m *putModel) legal(id string, stamp int64) bool {
	return m.acked[id] == stamp || slices.Contains(m.pending[id], stamp)
}

// at is one trajectory of a PutBatch: an id put at a place.
type at struct {
	id    string
	place int
}

// put sends one PutBatch and records its outcome.
func (m *putModel) put(s *store.Store, batch ...at) {
	if m.crashed {
		return
	}
	var ts []*traj.Trajectory
	for _, a := range batch {
		m.stamp++
		m.places[m.stamp] = a.place
		pts := place(a.place)
		times := make([]int64, len(pts))
		for j := range times {
			times[j] = m.stamp
		}
		ts = append(ts, &traj.Trajectory{ID: a.id, Points: pts, Times: times})
	}
	err := s.PutBatch(ts)
	for _, t := range ts {
		if err == nil {
			m.acked[t.ID], m.pending[t.ID] = t.Times[0], nil
		} else {
			m.pending[t.ID] = append(m.pending[t.ID], t.Times[0])
		}
	}
	m.crashed = errors.Is(err, vfs.ErrCrashed)
}

func (m *putModel) flush(s *store.Store) {
	if !m.crashed {
		m.crashed = errors.Is(s.Flush(), vfs.ErrCrashed)
	}
}

// run is the workload: shared values at every place, moves off and back onto
// a shared value, an overwrite in place, and a flush between rounds.
func (m *putModel) run(s *store.Store) {
	m.put(s, at{mover, 0}, at{witness, 0}, at{"a", 1}, at{"b", 1}, at{"c", 2}, at{"d", 2}, at{"e", 3}, at{"f", 3}, at{"g", 4}, at{"h", 4})
	m.put(s, at{mover, 5})
	m.put(s, at{"a", 2}, at{"c", 5}, at{"e", 1}, at{"g", 4}, at{"i", 6})
	m.flush(s)
	m.put(s, at{mover, 1}, at{"b", 7}, at{"d", 3}, at{"j", 7})
	m.put(s, at{"a", 1})
	m.put(s, at{mover, 0}, at{"f", 8}, at{"h", 2})
}

// followUp re-puts the movers after a reopen: a re-put reads the row the id
// owns, so it is where a stale id row would do its damage.
func (m *putModel) followUp(s *store.Store) {
	m.put(s, at{mover, 9}, at{"a", 8}, at{"c", 0})
}

func openTortureStore(t *testing.T, fsys *vfs.FaultFS) *store.Store {
	t.Helper()
	s, err := store.Open(store.Config{Dir: putTortureDir, Shards: 4, FS: fsys, SyncWrites: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

// checkPutModel compares everything the store reports with its rows on disk
// and with the model.
func checkPutModel(t *testing.T, s *store.Store, m *putModel, when string) {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("%s: snapshot: %v", when, err)
	}
	defer snap.Close()
	rows := map[string]int64{} // id → stamp of its data row
	var values []int64
	_, err = snap.ScanRangesStream(context.Background(), []xzstar.ValueRange{{Lo: 0, Hi: math.MaxInt64}}, nil, 0,
		store.StreamOptions{}, func(batch []kv.Entry) error {
			for _, e := range batch {
				rec, err := store.DecodeRow(e.Value)
				if err != nil {
					return err
				}
				if _, twice := rows[rec.ID]; twice {
					return fmt.Errorf("id %s has two data rows", rec.ID)
				}
				rows[rec.ID] = rec.Times[0]
				v := int64(binary.BigEndian.Uint64(e.Key[1:9]))
				if want := s.Index().Assign(place(m.places[rec.Times[0]])).Value; v != want {
					return fmt.Errorf("id %s: row under value %d, its points are at %d", rec.ID, v, want)
				}
				values = append(values, v)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("%s: scan: %v", when, err)
	}
	for id := range m.ids() {
		stamp, ok := rows[id]
		switch {
		case ok && !m.legal(id, stamp):
			t.Fatalf("%s: id %s holds version %d, neither acknowledged (%d) nor in flight (%v)", when, id, stamp, m.acked[id], m.pending[id])
		case !ok && m.acked[id] != 0:
			t.Fatalf("%s: acknowledged id %s (version %d) has no data row", when, id, m.acked[id])
		}
		rec, err := s.GetByID(id)
		switch {
		case ok && (err != nil || rec.Times[0] != stamp):
			t.Fatalf("%s: Get(%s) = %v, %v; its row holds version %d", when, id, rec, err, stamp)
		case !ok && !errors.Is(err, kv.ErrNotFound):
			t.Fatalf("%s: Get(%s) = %v, %v; it has no row", when, id, rec, err)
		}
	}
	if n := s.Count(); n != int64(len(rows)) {
		t.Fatalf("%s: Count = %d, %d data rows on disk", when, n, len(rows))
	}
	// The value set is exactly the rows' values: each one is in it, and no
	// gap between them holds another.
	slices.Sort(values)
	values = slices.Compact(values)
	lo := int64(0)
	for _, v := range values {
		if snap.HasValuesIn(lo, v) || !snap.HasValuesIn(v, v+1) {
			t.Fatalf("%s: value set disagrees with the rows around value %d (rows carry %v)", when, v, values)
		}
		lo = v + 1
	}
	if snap.HasValuesIn(lo, math.MaxInt64) {
		t.Fatalf("%s: value set holds a value above %d that no row carries", when, lo-1)
	}
	if _, ok := rows[witness]; !ok {
		return
	}
	// Only the mover and the witness ever sit at place 0.
	res, _, err := query.New(s, dist.Frechet).TopKContext(context.Background(), traj.New("q", place(0)), 2)
	if err != nil {
		t.Fatalf("%s: top-k: %v", when, err)
	}
	if !slices.ContainsFunc(res, func(r query.Result) bool { return r.ID == witness && r.Distance < 1e-6 }) {
		t.Fatalf("%s: top-k at the witness's place returned %v without it", when, res)
	}
}

// ids is every id the model has seen.
func (m *putModel) ids() map[string]bool {
	ids := map[string]bool{}
	for id := range m.acked {
		ids[id] = true
	}
	for id := range m.pending {
		ids[id] = true
	}
	return ids
}

func newPutModel() *putModel {
	return &putModel{acked: map[string]int64{}, pending: map[string][]int64{}, places: map[int64]int{}}
}

// putFaultPoints runs the workload once and returns the numbers of its
// mutating filesystem operations, after checking that it is not vacuous.
func putFaultPoints(t *testing.T) []int {
	t.Helper()
	fsys := vfs.NewFault()
	s := openTortureStore(t, fsys)
	defer s.Close()
	var points []int
	fsys.SetInject(func(op vfs.Op) vfs.Fault {
		if op.Kind.Mutating() {
			points = append(points, op.N)
		}
		return vfs.FaultNone
	})
	m := newPutModel()
	m.run(s)
	fsys.SetInject(nil)
	for id, pending := range m.pending {
		if len(pending) != 0 {
			t.Fatalf("baseline put of %s failed", id)
		}
	}
	checkPutModel(t, s, m, "baseline")
	regions := map[int]bool{}
	for id := range m.ids() {
		regions[regionHolding(t, s, s.RowKey(xzstar.Entry{}, id)).ID()] = true
	}
	if len(regions) != 4 {
		t.Fatalf("the workload's ids live in %d of 4 regions", len(regions))
	}
	seen := map[int64]bool{}
	for p := 0; p < 10; p++ {
		if v := s.Index().Assign(place(p)).Value; seen[v] {
			t.Fatalf("place %d shares an index value with another place", p)
		} else {
			seen[v] = true
		}
	}
	return points
}

func TestStorePutTorture(t *testing.T) {
	points := putFaultPoints(t)
	t.Logf("%d fault points", len(points))
	if testing.Short() {
		var strided []int
		for i := 0; i < len(points); i += len(points)/40 + 1 {
			strided = append(strided, points[i])
		}
		points = strided
	}
	for _, fault := range []vfs.Fault{vfs.FaultErr, vfs.FaultCrash} {
		for _, point := range points {
			when := fmt.Sprintf("fault %d at op %d", fault, point)
			fsys := vfs.NewFault()
			s := openTortureStore(t, fsys)
			fsys.SetInject(func(op vfs.Op) vfs.Fault {
				if op.N == point {
					return fault
				}
				return vfs.FaultNone
			})
			m := newPutModel()
			m.run(s)
			if fault == vfs.FaultErr {
				checkPutModel(t, s, m, when+", live")
			}
			// Power loss, then reboot: only what was synced survives.
			_ = s.Close()
			fsys.Crash()
			fsys.SetInject(nil)
			s = openTortureStore(t, fsys)
			checkPutModel(t, s, m, when+", reopened")
			m.crashed = false
			m.followUp(s)
			checkPutModel(t, s, m, when+", re-put after reopen")
			if err := s.Close(); err != nil {
				t.Fatalf("%s: close: %v", when, err)
			}
		}
	}
}
