package kv

import (
	"bytes"
	"container/heap"
)

// Range is a half-open key range [Start, End); nil bounds are open.
type Range struct {
	Start, End []byte
}

// allKeys is the one open range a table build merges over. Read-only.
var allKeys = []Range{{}}

// kvIter is the internal iterator contract shared by memtable, SSTable and
// batch sources: entries in ascending key order, each with a kind. A source
// is positioned by seek before its first Next, and again for every later
// range a merge walks; seek keeps whatever state lets the source continue
// forward cheaply (an SSTable's loaded block), so a list of ranges costs one
// source per input, not one per range.
type kvIter interface {
	// seek positions the source so that Next yields its entries in
	// [start, end), in key order; nil bounds are open. Within one list any
	// range may follow any other, and the source may keep start and end,
	// which alias the caller's list, until the next seek or reset.
	seek(start, end []byte)
	// reset drops every seek state that aliases the current list, whose
	// bytes the caller may overwrite before the next list's first seek; what
	// the source owns (an SSTable's loaded block) stays.
	reset()
	Next() bool
	Key() []byte
	Value() []byte
	Kind() byte
	Err() error
	Close() error
}

// mergeSource is one input of the merge heap. priority breaks key ties:
// lower = newer data wins.
type mergeSource struct {
	it       kvIter
	priority int
}

type mergeHeap []*mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := bytes.Compare(h[i].it.Key(), h[j].it.Key())
	if c != 0 {
		return c < 0
	}
	return h[i].priority < h[j].priority
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeIter merges several kvIters into one Iterator over a list of ranges,
// resolving key versions (newest wins) and dropping tombstones. It yields the
// concatenation of one merge per range, in the order given: when a range is
// exhausted every source seeks to the next one and the heap is rebuilt in
// place. It releases the SSTable references it holds when closed.
type mergeIter struct {
	srcs   []mergeSource // every input, in priority order
	h      mergeHeap     // the inputs holding an entry in the current range
	ranges []Range
	next   int // index of the range the heap is rebuilt for next

	stats *Stats
	// walked and read are added to stats once the iterator ends or closes,
	// not per entry.
	walked, read int64

	key     []byte
	value   []byte
	kind    byte
	lastKey []byte
	hasLast bool
	err     error
	closed  bool
	// tables are released at Close.
	tables []*sstReader
	// keepTombstones surfaces tombstones instead of dropping them — the
	// partial-compaction path needs them to keep shadowing older tables.
	keepTombstones bool
}

// newMergeIter merges sources (earlier sources win a key tie) over ranges.
// Nothing is read until the first Next.
func newMergeIter(sources []kvIter, ranges []Range, stats *Stats, tables []*sstReader) *mergeIter {
	m := &mergeIter{
		srcs:   make([]mergeSource, len(sources)),
		h:      make(mergeHeap, 0, len(sources)),
		ranges: ranges,
		stats:  stats,
		tables: tables,
	}
	for pri, it := range sources {
		m.srcs[pri] = mergeSource{it: it, priority: pri}
	}
	return m
}

// Reset re-targets the iterator at ranges: what it yields next is what a new
// ScanRanges over them would yield. The pinned sources and the blocks they
// hold stay; every source forgets its last range, whose bytes the caller may
// already have overwritten.
func (m *mergeIter) Reset(ranges []Range) {
	if m.closed {
		return
	}
	m.ranges, m.next = ranges, 0
	m.h = m.h[:0]
	m.hasLast = false
	for i := range m.srcs {
		m.srcs[i].it.reset()
	}
}

// startRange seeks every source to the next range and rebuilds the heap.
func (m *mergeIter) startRange() {
	r := m.ranges[m.next]
	m.next++
	m.hasLast = false // a key shared by two overlapping ranges is yielded twice
	m.h = m.h[:0]
	for i := range m.srcs {
		src := &m.srcs[i]
		src.it.seek(r.Start, r.End)
		if src.it.Next() {
			m.h = append(m.h, src)
		} else if err := src.it.Err(); err != nil {
			m.err = err
			return
		}
	}
	heap.Init(&m.h)
}

func (m *mergeIter) Next() bool {
	if m.closed {
		return false
	}
	for m.err == nil {
		if len(m.h) == 0 {
			if m.next >= len(m.ranges) {
				break
			}
			m.startRange()
			continue
		}
		src := m.h[0]
		key := src.it.Key()
		value := src.it.Value()
		kind := src.it.Kind()
		m.walked++

		shadowed := m.hasLast && bytes.Equal(key, m.lastKey)
		if !shadowed {
			m.lastKey = key
			m.hasLast = true
		}
		// The source's slices stay valid after it advances: no byte a source
		// hands out is ever written again (see Iterator), so nothing is copied
		// for the rows a caller's filter rejects.
		emit := !shadowed && (m.keepTombstones || kind != kindTombstone)
		if emit {
			m.key, m.value, m.kind = key, value, kind
		}

		if src.it.Next() {
			heap.Fix(&m.h, 0)
		} else if err := src.it.Err(); err != nil {
			m.err = err
			break
		} else {
			heap.Pop(&m.h)
		}
		if emit {
			m.read++
			return true
		}
	}
	m.addCounts()
	return false
}

// addCounts moves the local walk counts into the store's Stats.
func (m *mergeIter) addCounts() {
	if m.stats != nil && (m.walked != 0 || m.read != 0) {
		m.stats.EntriesWalked.Add(m.walked)
		m.stats.EntriesRead.Add(m.read)
	}
	m.walked, m.read = 0, 0
}

func (m *mergeIter) Key() []byte   { return m.key }
func (m *mergeIter) Value() []byte { return m.value }
func (m *mergeIter) Err() error    { return m.err }

func (m *mergeIter) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.addCounts()
	var first error
	for i := range m.srcs {
		if err := m.srcs[i].it.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.h = nil
	for _, t := range m.tables {
		t.release()
	}
	m.tables = nil
	return first
}
