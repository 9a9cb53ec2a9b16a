package kv

import "bytes"

// skiplist is the memtable's ordered map. It is not safe for concurrent use;
// the DB serializes access with its mutex. Entries are never removed —
// deletes insert tombstones, and the whole list is dropped on flush.
const (
	maxHeight = 12
	branching = 4
)

type skipNode struct {
	key   []byte
	value []byte
	kind  byte
	next  [maxHeight]*skipNode
}

type skiplist struct {
	head   *skipNode
	height int
	length int
	bytes  int // approximate memory footprint of keys+values
	// rng is randomHeight's xorshift64* state, never zero. It is kept
	// inline because a snapshot freezes the memtable and starts a new list,
	// so a list's generator is paid once per snapshot.
	rng uint64
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:   &skipNode{},
		height: 1,
		rng:    uint64(seed)*0x9E3779B97F4A7C15 | 1, // spread nearby seeds apart
	}
}

// randomHeight draws a height with P(h > k) = branching^-k, capped at
// maxHeight, from one xorshift64* step: each trailing zero digit, in base
// branching, of the output's top 32 bits adds a level.
func (s *skiplist) randomHeight() int {
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	r := (x * 0x2545F4914F6CDD1D) >> 32
	h := 1
	for h < maxHeight && r%branching == 0 {
		h++
		r /= branching
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= k and fills prev with
// the rightmost node before it on every level.
func (s *skiplist) findGreaterOrEqual(k []byte, prev *[maxHeight]*skipNode) *skipNode {
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for next := x.next[level]; next != nil && bytes.Compare(next.key, k) < 0; next = x.next[level] {
			x = next
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// set inserts or replaces k. Replacement updates the node in place, which is
// correct because the memtable always holds the newest version of a key.
func (s *skiplist) set(k, v []byte, kind byte) {
	var prev [maxHeight]*skipNode
	if n := s.findGreaterOrEqual(k, &prev); n != nil && bytes.Equal(n.key, k) {
		s.bytes += len(v) - len(n.value)
		n.value = v
		n.kind = kind
		return
	}
	h := s.randomHeight()
	if h > s.height {
		for level := s.height; level < h; level++ {
			prev[level] = s.head
		}
		s.height = h
	}
	n := &skipNode{key: k, value: v, kind: kind}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	s.length++
	s.bytes += entryBytes(k, v)
}

// entryBytes is what one new memtable entry adds to its list's byte count:
// key, value and an approximate node overhead. The memtable flush threshold
// and the ingest threshold (DB.Apply) both measure in it.
func entryBytes(k, v []byte) int { return len(k) + len(v) + 64 }

// get returns the node for k, or nil.
func (s *skiplist) get(k []byte) *skipNode {
	n := s.findGreaterOrEqual(k, nil)
	if n != nil && bytes.Equal(n.key, k) {
		return n
	}
	return nil
}

// skipIter iterates the skiplist within [start, end).
type skipIter struct {
	list  *skiplist
	node  *skipNode
	end   []byte
	first bool
}

// iter returns an iterator over the whole list.
func (s *skiplist) iter() *skipIter {
	it := &skipIter{list: s}
	it.seek(nil, nil)
	return it
}

// seek positions at the first key >= start.
func (it *skipIter) seek(start, end []byte) {
	if start == nil {
		it.node = it.list.head.next[0]
	} else {
		it.node = it.list.findGreaterOrEqual(start, nil)
	}
	it.end, it.first = end, true
}

func (it *skipIter) reset() { it.node, it.end = nil, nil }

func (it *skipIter) Next() bool {
	if it.first {
		it.first = false
	} else if it.node != nil {
		it.node = it.node.next[0]
	}
	if it.node == nil {
		return false
	}
	if it.end != nil && bytes.Compare(it.node.key, it.end) >= 0 {
		it.node = nil
		return false
	}
	return true
}

func (it *skipIter) Key() []byte   { return it.node.key }
func (it *skipIter) Value() []byte { return it.node.value }
func (it *skipIter) Kind() byte    { return it.node.kind }
func (it *skipIter) Err() error    { return nil }
func (it *skipIter) Close() error  { it.node = nil; return nil }
