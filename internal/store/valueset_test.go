package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/vfs"
)

// flatten returns the set's values, ascending, in a new slice.
func (vs valueSet) flatten() []int64 {
	var out []int64
	for _, c := range vs.chunks {
		out = append(out, c...)
	}
	return out
}

// applyOracle is with on a plain sorted slice: want with crossed added, or
// removed, in a new slice.
func applyOracle(want, crossed []int64, add bool) []int64 {
	out := slices.Clone(want)
	for _, c := range crossed {
		i, held := slices.BinarySearch(out, c)
		if add && !held {
			out = slices.Insert(out, i, c)
		} else if !add && held {
			out = slices.Delete(out, i, i+1)
		}
	}
	return out
}

// checkValueSet compares vs with the sorted slice want: the chunk invariants,
// the values, and hasIn against a binary search of want at every chunk
// boundary and over random ranges.
func checkValueSet(t testing.TB, vs valueSet, want []int64, rng *rand.Rand) {
	t.Helper()
	if len(vs.chunks) != len(vs.last) {
		t.Fatalf("%d chunks under %d directory entries", len(vs.chunks), len(vs.last))
	}
	prev := int64(0)
	for i, c := range vs.chunks {
		if len(c) == 0 || len(c) > 2*chunkTarget {
			t.Fatalf("chunk %d holds %d values, want 1..%d", i, len(c), 2*chunkTarget)
		}
		if vs.last[i] != c[len(c)-1] {
			t.Fatalf("directory entry %d is %d, chunk ends at %d", i, vs.last[i], c[len(c)-1])
		}
		for j, v := range c {
			if (i > 0 || j > 0) && v <= prev {
				t.Fatalf("chunk %d value %d is %d after %d: not strictly ascending", i, j, v, prev)
			}
			prev = v
		}
	}
	if got := vs.flatten(); !slices.Equal(got, want) {
		t.Fatalf("set holds %d values, oracle %d (equal prefix %d)", len(got), len(want), commonPrefix(got, want))
	}
	if vs.size() != len(want) {
		t.Fatalf("size %d, oracle %d", vs.size(), len(want))
	}
	probe := func(lo, hi int64) {
		i, _ := slices.BinarySearch(want, lo)
		if w := i < len(want) && want[i] < hi; vs.hasIn(lo, hi) != w {
			t.Fatalf("hasIn(%d, %d) = %v, oracle %v", lo, hi, !w, w)
		}
	}
	for i, c := range vs.chunks {
		for _, v := range []int64{c[0] - 1, c[0], vs.last[i], vs.last[i] + 1} {
			probe(v, v)
			probe(v, v+1)
			probe(v, v+2)
			probe(v-1, v)
		}
		if i+1 < len(vs.chunks) { // the gap between two chunks
			probe(vs.last[i]+1, vs.chunks[i+1][0])
			probe(vs.last[i]+1, vs.chunks[i+1][0]+1)
		}
	}
	for k := 0; k < 64; k++ {
		lo := rng.Int63n(1<<21) - 1<<10
		probe(lo, lo+rng.Int63n(1<<(rng.Intn(16)+1)))
	}
	probe(-1<<40, 1<<40)
}

func commonPrefix(a, b []int64) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// distinctSorted returns n distinct values drawn from [lo, lo+span),
// ascending (fewer when span < n).
func distinctSorted(rng *rand.Rand, n int, lo, span int64) []int64 {
	seen := make(map[int64]bool, n)
	for tries := 0; len(seen) < n && tries < 4*n; tries++ {
		seen[lo+rng.Int63n(span)] = true
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// The chunked value set against a sorted slice: bulk-sized adds that span
// several chunks and split them, scattered adds and removals, removals that
// empty whole chunks, and values below the first chunk and above the last.
// Each publish runs while a second goroutine probes the set it started from,
// which must come out of the publish unchanged (under -race, a write into a
// shared chunk is reported as well).
func TestValueSetMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var vs valueSet
	var want []int64

	held := make(chan valueSet)
	done := make(chan []int64)
	go func() {
		for before := range held {
			done <- before.flatten()
		}
	}()
	defer close(held)

	step := func(name string, crossed []int64, add bool) {
		t.Helper()
		before, beforeValues := vs, slices.Clone(want)
		held <- before
		vs = vs.with(crossed, add)
		if got := <-done; !slices.Equal(got, beforeValues) {
			t.Fatalf("%s: the set published before read %d values during the publish, want %d", name, len(got), len(beforeValues))
		}
		want = applyOracle(want, crossed, add)
		checkValueSet(t, vs, want, rng)
		if got := before.flatten(); !slices.Equal(got, beforeValues) {
			t.Fatalf("%s: the set published before changed: %d values, want %d", name, len(got), len(beforeValues))
		}
	}

	step("bulk add into the empty set", distinctSorted(rng, 20000, 0, 1<<20), true)
	if len(vs.chunks) < 20 {
		t.Fatalf("a 20000-value set sits in %d chunks", len(vs.chunks))
	}
	for round := 0; round < 200; round++ {
		name := fmt.Sprintf("round %d", round)
		switch rng.Intn(7) {
		case 0: // a bulk-sized add crowded into a few chunks: splits them
			lo := rng.Int63n(1 << 20)
			step(name+": crowded add", distinctSorted(rng, 3000, lo, 1<<14), true)
		case 1: // scattered adds, some already held
			step(name+": scattered add", distinctSorted(rng, 1+rng.Intn(40), 0, 1<<20), true)
		case 2: // scattered removals, some not held
			crossed := distinctSorted(rng, 1+rng.Intn(40), 0, 1<<20)
			for k := 0; k < 10 && len(want) > 0; k++ {
				crossed = append(crossed, want[rng.Intn(len(want))])
			}
			slices.Sort(crossed)
			step(name+": scattered remove", slices.Compact(crossed), false)
		case 3: // empty one chunk, or two neighbours at once
			if len(vs.chunks) == 0 {
				continue
			}
			i := rng.Intn(len(vs.chunks))
			crossed := slices.Clone(vs.chunks[i])
			if i+1 < len(vs.chunks) && rng.Intn(2) == 0 {
				crossed = append(crossed, vs.chunks[i+1]...)
			}
			step(name+": empty chunks", crossed, false)
		case 4: // below the first chunk and above the last
			step(name+": add at the ends", []int64{-1<<30 - int64(round), 1<<30 + int64(round)}, true)
		case 5: // removals below and above the set, and of the ends
			crossed := []int64{-1 << 40}
			if len(want) > 0 {
				crossed = append(crossed, want[0], want[len(want)-1])
			}
			step(name+": remove at the ends", slices.Compact(append(crossed, 1<<40)), false)
		case 6: // most of a long run of chunks in one publish
			if len(want) < 2 {
				continue
			}
			a := rng.Intn(len(want))
			b := min(len(want), a+rng.Intn(3000))
			var crossed []int64
			for _, v := range want[a:b] {
				if rng.Intn(8) != 0 {
					crossed = append(crossed, v)
				}
			}
			step(name+": remove a run", crossed, false)
		}
	}
	step("remove everything", slices.Clone(want), false)
	if len(vs.chunks) != 0 {
		t.Fatalf("the emptied set keeps %d chunks", len(vs.chunks))
	}
	step("refill", distinctSorted(rng, 5000, -1<<20, 1<<21), true)
}

// FuzzValueSet decodes publishes from bytes — each six bytes add or remove an
// arithmetic run of values — and checks the set against a sorted slice after
// every one.
func FuzzValueSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 0, 1, 1, 0, 16, 1, 0, 2})
	f.Add([]byte{0, 0, 0, 16, 0, 0, 0, 255, 0, 4, 0, 1, 1, 1, 0, 2, 0, 0})
	f.Add([]byte{2, 128, 0, 11, 184, 3, 0, 0, 10, 4, 0, 0, 1, 128, 0, 8, 0, 0, 4, 255, 255, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(int64(len(data))))
		var vs valueSet
		var want []int64
		for ; len(data) >= 6; data = data[6:] {
			add := data[0]&1 == 0
			start := int64(binary.BigEndian.Uint16(data[1:3])) - 1<<12
			count := int(binary.BigEndian.Uint16(data[3:5]) % 4096)
			stride := int64(data[5]%8) + 1
			crossed := make([]int64, count)
			for k := range crossed {
				crossed[k] = start + int64(k)*stride
			}
			before, beforeValues := vs, slices.Clone(want)
			vs = vs.with(crossed, add)
			want = applyOracle(want, crossed, add)
			checkValueSet(t, vs, want, rng)
			if !slices.Equal(before.flatten(), beforeValues) {
				t.Fatal("a publish changed the set it started from")
			}
		}
	})
}

// A put costs what it writes: the bytes allocated per put into a store of
// 40,000 trajectories are within 1.5× those into a store of 5,000, although
// the larger store's value set is about eight times the size.
func TestPutCostFlatInTableSize(t *testing.T) {
	const puts = 500
	sizes := []int{5000, 40000}
	data := gen.TDrive(gen.TDriveOptions{Seed: 11, N: sizes[1] + puts})
	fresh := data[sizes[1]:] // ids no store below holds
	perPut := make([]float64, len(sizes))
	for i, n := range sizes {
		s, err := Open(Config{Dir: "/db", FS: vfs.NewFault()})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch(data[:n]); err != nil {
			t.Fatal(err)
		}
		// Empty every memtable and finish compaction first, so that no
		// flush or merge falls among the puts measured.
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		distinct := s.values.size()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, tr := range fresh {
			if err := s.Put(tr); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perPut[i] = float64(after.TotalAlloc-before.TotalAlloc) / puts
		t.Logf("%d trajectories, %d distinct values: %.1f kB allocated per put", n, distinct, perPut[i]/1e3)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if perPut[1] > 1.5*perPut[0] {
		t.Fatalf("a put allocates %.1f kB at %d trajectories, %.1f kB at %d: the cost grows with the table", perPut[1]/1e3, sizes[1], perPut[0]/1e3, sizes[0])
	}
}
