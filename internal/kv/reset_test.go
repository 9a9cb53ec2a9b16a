package kv

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// rangeArena builds range lists whose keys live in one reused buffer, as a
// caller that re-targets an iterator builds each list in the bytes of the
// last.
type rangeArena struct{ buf []byte }

// build overwrites every byte of the arena, then lays out ranges' keys in it
// from the front and returns the list, slicing the arena.
func (a *rangeArena) build(ranges []Range) []Range {
	clear(a.buf[:cap(a.buf)])
	keys := a.buf[:0]
	place := func(k []byte) []byte {
		if k == nil {
			return nil
		}
		if len(keys)+len(k) > cap(keys) {
			panic("rangeArena: buffer too small")
		}
		keys = append(keys, k...)
		return keys[len(keys)-len(k) : len(keys) : len(keys)]
	}
	out := make([]Range, len(ranges))
	for i, r := range ranges {
		out[i] = Range{Start: place(r.Start), End: place(r.End)}
	}
	return out
}

// TestScanRangesResetAfterOverwrite walks one iterator through a chain of
// range lists, each built in the bytes of the one before (every byte
// overwritten first), and checks that after every Reset it yields what a
// fresh ScanRanges over the new list yields, over three tables and two frozen
// memtables. The chain goes from lists to lists before, after and overlapping
// them, unsorted ones included, and some lists are left unfinished before the
// Reset, as a cancelled scan leaves them. The whole chain counts one scan.
func TestScanRangesResetAfterOverwrite(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(48))
	db := newTestDB(t, Options{CompactAt: -1})
	model := map[string]string{}
	write := func(round, puts, dels int) {
		for i := 0; i < puts; i++ {
			k := scanKey(rng.Intn(n))
			v := fmt.Sprintf("r%d-%d-%040d", round, i, rng.Int63())
			if err := db.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = v
		}
		for i := 0; i < dels; i++ {
			k := scanKey(rng.Intn(n))
			if err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		}
	}
	for round := 0; round < 3; round++ {
		write(round, 1200, 150*round)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write(3, 200, 60)
	first, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_ = first.Close()
	write(4, 200, 60)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if len(snap.tables) < 3 || len(snap.mems) < 2 {
		t.Fatalf("snapshot holds %d tables and %d memtables, want at least 3 and 2", len(snap.tables), len(snap.mems))
	}

	// Hand-picked steps, each against the list before it: a list after
	// where the last one stopped, one before it, one overlapping it, one
	// whose first range starts past bytes that held the last one's stop.
	chain := [][]Range{
		{keyRange(100, 200), keyRange(2000, 2100)},
		{keyRange(1500, 1600), keyRange(100, 200)},
		{keyRange(2200, 2300)},
		{keyRange(300, 400), keyRange(2250, 2260)},
		{keyRange(350, 450), keyRange(2255, 2400)},
		{keyRange(2900, 2950), keyRange(10, 20), keyRange(2960, -1)},
		{keyRange(2000, 2001), keyRange(1000, 1100)},
		{keyRange(-1, 30)},
	}
	lists := scanRangeLists(rng, n)
	names := make([]string, 0, len(lists))
	for name := range lists {
		names = append(names, name)
	}
	sort.Strings(names)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	for _, name := range names {
		chain = append(chain, lists[name])
	}

	arena := &rangeArena{buf: make([]byte, 0, 4096)}
	scans := db.Stats().Scans
	ranges := arena.build(chain[0])
	it := snap.ScanRanges(ranges)
	defer it.Close()
	for step, want := range chain {
		if step > 0 {
			ranges = arena.build(want)
			it.Reset(ranges)
		}
		var got []string
		for it.Next() {
			got = append(got, string(it.Key())+"="+string(it.Value()))
		}
		if err := it.Err(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if fresh := drain(t, snap.ScanRanges(slices.Clone(want))); !slices.Equal(got, fresh) {
			t.Errorf("step %d %q: the reset iterator yields %d entries, a fresh one %d", step, want, len(got), len(fresh))
		}
		if m := modelScans(model, want); !slices.Equal(got, m) {
			t.Errorf("step %d %q: the reset iterator yields %d entries, the model %d", step, want, len(got), len(m))
		}

		// Every third list is started again and left unfinished, as a
		// cancelled region call leaves its iterator, before the next Reset.
		if step%3 == 0 && len(got) > 1 {
			it.Reset(ranges)
			for i := 0; i < len(got)/2; i++ {
				if !it.Next() {
					t.Fatalf("step %d: the restarted iterator ends after %d of %d entries", step, i, len(got))
				}
			}
		}
	}
	// The fresh comparison scans opened one iterator per step.
	if d := db.Stats().Scans - scans; d != int64(1+len(chain)) {
		t.Errorf("the chain counted %d scans, want %d (one, plus one per fresh comparison)", d, 1+len(chain))
	}

	it.Reset(arena.build([]Range{keyRange(-1, -1)}))
	_ = it.Close()
	it.Reset(arena.build([]Range{keyRange(-1, -1)}))
	if it.Next() {
		t.Error("an iterator reset after Close yields an entry")
	}
}
