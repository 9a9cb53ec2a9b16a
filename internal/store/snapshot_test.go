package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// Snapshot shares the published value set instead of copying it, so what a
// query pays to pin the table does not grow with the table: 8 B per distinct
// value — 160 kB here — would blow the budget twenty times over.
func TestSnapshotSharesValueSet(t *testing.T) {
	s := newTestStore(t, Config{})
	rng := rand.New(rand.NewSource(93))
	trajs := make([]*traj.Trajectory, 24000)
	for i := range trajs {
		trajs[i] = walk(rng, fmt.Sprintf("t%05d", i), 3, 0.0002)
	}
	if err := s.PutBatch(trajs); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	pin := func() {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.values.size() < 20000 {
			t.Fatalf("only %d distinct values; the budget below would prove nothing", snap.values.size())
		}
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
	}
	pin() // the first snapshot after a write freezes memtables; not what is measured
	const budget, runs = 8 << 10, 20
	// Background flush/compaction work may allocate during a round, so the
	// quietest of a few rounds is the snapshot's own cost.
	best := ^uint64(0)
	var before, after runtime.MemStats
	for round := 0; round < 5; round++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			pin()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if best > budget {
		t.Fatalf("Snapshot+Close allocates %d B, budget %d B", best, budget)
	}
}

// A held snapshot is point-in-time: writes that remove an index value's last
// row, add a new value and merge a PutBatch chunk — with another writer and a
// prober running beside them — change neither its value slice nor any
// HasValuesIn answer, while a fresh snapshot sees all of it.
func TestSnapshotHeldAcrossWrites(t *testing.T) {
	s := newTestStore(t, Config{Shards: 4})
	rng := rand.New(rand.NewSource(94))
	for i := 0; i < 200; i++ {
		if err := s.Put(walk(rng, fmt.Sprintf("t%03d", i), 10, 0.01)); err != nil {
			t.Fatal(err)
		}
	}
	at := func(id string, x float64) *traj.Trajectory {
		return traj.New(id, []geo.Point{{X: x, Y: x}, {X: x + 0.0001, Y: x}})
	}
	solo := at("solo", 0.123)
	if err := s.Put(solo); err != nil {
		t.Fatal(err)
	}
	value := func(tr *traj.Trajectory) int64 { return s.Index().Assign(tr.Points).Value }

	held, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	probe := func(sn *Snapshot) []bool {
		total := s.Index().TotalIndexSpaces()
		var out []bool
		for _, v := range held.values.flatten() {
			out = append(out, sn.HasValuesIn(v, v+1), sn.HasValuesIn(v+1, v+1000))
		}
		for lo := int64(0); lo < total; lo += total / 512 {
			out = append(out, sn.HasValuesIn(lo, lo+total/512))
		}
		return out
	}
	wantValues := held.values.flatten()
	wantProbe := probe(held)
	if !held.HasValuesIn(value(solo), value(solo)+1) {
		t.Fatal("held snapshot misses a stored value")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // another writer, other ids
		defer wg.Done()
		wrng := rand.New(rand.NewSource(95))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Put(walk(wrng, fmt.Sprintf("w%02d", i%40), 10, 0.01)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // a query probing the held snapshot while the writers run
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := probe(held); !reflect.DeepEqual(got, wantProbe) {
				t.Error("held snapshot's HasValuesIn answers changed under writes")
				return
			}
		}
	}()

	moved := at("solo", 0.789) // removes the last row under solo's old value
	fresh := at("fresh", 0.456)
	chunk := make([]*traj.Trajectory, 300)
	for i := range chunk {
		chunk[i] = walk(rng, fmt.Sprintf("c%03d", i), 10, 0.01)
	}
	for _, v := range []int64{value(moved), value(fresh), value(chunk[0])} {
		if held.HasValuesIn(v, v+1) {
			t.Fatal("a value to be added is already stored; test is vacuous")
		}
	}
	if err := s.Put(moved); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fresh); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(chunk); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if !reflect.DeepEqual(held.values.flatten(), wantValues) {
		t.Fatal("held snapshot's value slice changed under writes")
	}
	if !reflect.DeepEqual(probe(held), wantProbe) {
		t.Fatal("held snapshot's HasValuesIn answers changed under writes")
	}
	now, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer now.Close()
	if v := value(solo); now.HasValuesIn(v, v+1) {
		t.Error("fresh snapshot still lists the value whose last row was re-put elsewhere")
	}
	for _, tr := range append([]*traj.Trajectory{moved, fresh}, chunk...) {
		if v := value(tr); !now.HasValuesIn(v, v+1) {
			t.Errorf("fresh snapshot misses the value of %s", tr.ID)
		}
	}
}
