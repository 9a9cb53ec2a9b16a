package store

import "slices"

// chunkTarget is the number of values a valueSet chunk is cut to. A publish
// copies the chunks it touches plus the directory, so the target trades the
// per-put copy (≈ 2 × chunkTarget values per touched chunk) against the
// directory (N / chunkTarget entries, copied whole by every publish).
const chunkTarget = 512

// valueSet is an immutable set of distinct index values: ascending chunks
// under a directory. A published set is never mutated — with builds a new
// directory that shares every untouched chunk — so a Snapshot holds one by
// value, in O(1), and probes it without a lock.
type valueSet struct {
	// chunks are non-empty, ascending within and across chunks, and hold at
	// most 2 × chunkTarget values each. last[i] is chunks[i]'s largest value:
	// the directory hasIn binary-searches.
	chunks [][]int64
	last   []int64
}

// size is the number of values in the set.
func (vs valueSet) size() int {
	n := 0
	for _, c := range vs.chunks {
		n += len(c)
	}
	return n
}

// hasIn reports whether the set holds a value in [lo, hi): one binary search
// over the directory for the first chunk reaching lo, one inside it.
func (vs valueSet) hasIn(lo, hi int64) bool {
	i, _ := slices.BinarySearch(vs.last, lo)
	if i == len(vs.last) {
		return false
	}
	c := vs.chunks[i]
	j, _ := slices.BinarySearch(c, lo)
	return c[j] < hi // c[len(c)-1] >= lo, so j is in range
}

// with returns the set with crossed (ascending, distinct) added, or removed.
// Each value goes to the first chunk whose last value reaches it, a value
// above the set to the final chunk. Only the chunks that receive a value are
// rebuilt: one that grows past 2 × chunkTarget is cut into pieces of at most
// chunkTarget, one left empty is dropped. vs is left as it was.
func (vs valueSet) with(crossed []int64, add bool) valueSet {
	if len(crossed) == 0 || (len(vs.chunks) == 0 && !add) {
		return vs
	}
	next := valueSet{
		chunks: make([][]int64, 0, len(vs.chunks)+len(crossed)/chunkTarget+2),
		last:   make([]int64, 0, len(vs.chunks)+len(crossed)/chunkTarget+2),
	}
	i := 0 // vs.chunks[:i] are placed in next
	for len(crossed) > 0 && i < len(vs.chunks) {
		j, _ := slices.BinarySearch(vs.last[i:], crossed[0])
		j += i
		if j == len(vs.chunks) {
			if !add {
				break // above the set: nothing to remove
			}
			j--
		}
		next.place(vs.chunks[i:j], vs.last[i:j])
		n := len(crossed) // the final chunk takes every value left
		if j < len(vs.chunks)-1 {
			n, _ = slices.BinarySearch(crossed, vs.last[j]+1)
		}
		next.cut(mergeChunk(vs.chunks[j], crossed[:n], add))
		crossed, i = crossed[n:], j+1
	}
	next.place(vs.chunks[i:], vs.last[i:])
	if len(vs.chunks) == 0 {
		next.cut(slices.Clone(crossed))
	}
	return next
}

// place appends shared chunks to the directory as they are.
func (vs *valueSet) place(chunks [][]int64, last []int64) {
	vs.chunks = append(vs.chunks, chunks...)
	vs.last = append(vs.last, last...)
}

// cut appends a freshly built run of values, as one chunk or, above
// 2 × chunkTarget, as equal pieces of at most chunkTarget. Each piece is a
// copy, so that a chunk rebuilt later frees its values instead of leaving
// them pinned by its siblings in a shared array.
func (vs *valueSet) cut(run []int64) {
	if len(run) == 0 {
		return
	}
	if len(run) <= 2*chunkTarget {
		vs.chunks = append(vs.chunks, run)
		vs.last = append(vs.last, run[len(run)-1])
		return
	}
	pieces := (len(run) + chunkTarget - 1) / chunkTarget
	for p := 0; p < pieces; p++ {
		vs.cut(slices.Clone(run[p*len(run)/pieces : (p+1)*len(run)/pieces]))
	}
}

// mergeChunk returns a new slice: chunk with crossed (ascending, distinct)
// added, or removed.
func mergeChunk(chunk, crossed []int64, add bool) []int64 {
	room := len(chunk)
	if add {
		room += len(crossed)
	}
	out := make([]int64, 0, room)
	for _, c := range crossed {
		k, stored := slices.BinarySearch(chunk, c)
		out = append(out, chunk[:k]...)
		chunk = chunk[k:]
		if stored && !add {
			chunk = chunk[1:]
		} else if !stored && add {
			out = append(out, c)
		}
	}
	return append(out, chunk...)
}
