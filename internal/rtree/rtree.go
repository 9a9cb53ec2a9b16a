// Package rtree is an R-tree over axis-parallel rectangles, built by dynamic
// inserts with quadratic node splits. It is the index substrate of the DFT
// baseline (DFT builds R-trees over trajectory partitions, insert by insert)
// and a dynamic-index counterpoint to the static XZ* index.
package rtree

import (
	"math"

	"repro/internal/geo"
)

// Item is one indexed rectangle with its payload.
type Item struct {
	Rect geo.Rect
	Data int // caller-managed identifier
}

const (
	maxEntries = 16
	minEntries = maxEntries * 2 / 5
)

type node struct {
	rect     geo.Rect
	leaf     bool
	items    []Item  // leaf payloads
	children []*node // interior children
}

// Tree is an R-tree. Not safe for concurrent mutation; concurrent readers
// are fine once building stops.
type Tree struct {
	root *node
	size int
	path []*node // scratch: ancestors of the last chooseLeaf descent
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true, rect: geo.EmptyRect()}}
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Insert adds an item, growing and splitting nodes as needed.
func (t *Tree) Insert(it Item) {
	n := t.chooseLeaf(t.root, it.Rect)
	n.items = append(n.items, it)
	n.rect = n.rect.Union(it.Rect)
	t.size++
	t.splitUpward(n)
}

// chooseLeaf descends to the leaf whose MBR needs the least enlargement.
// Parent pointers are avoided by re-walking; the tree tracks the path.
func (t *Tree) chooseLeaf(n *node, r geo.Rect) *node {
	t.path = t.path[:0]
	for !n.leaf {
		t.path = append(t.path, n)
		best := -1
		bestGrow := math.Inf(1)
		bestArea := math.Inf(1)
		for i, c := range n.children {
			u := c.rect.Union(r)
			grow := u.Area() - c.rect.Area()
			//lint:ignore floatcmp exact equality only breaks ties in a heuristic child choice; either child is correct
			if grow < bestGrow || (grow == bestGrow && c.rect.Area() < bestArea) {
				best, bestGrow, bestArea = i, grow, c.rect.Area()
			}
		}
		n = n.children[best]
	}
	return n
}

// splitUpward splits the leaf if overfull and propagates along the recorded
// path, growing the tree at the root when necessary.
func (t *Tree) splitUpward(n *node) {
	for {
		var overfull bool
		if n.leaf {
			overfull = len(n.items) > maxEntries
		} else {
			overfull = len(n.children) > maxEntries
		}
		// Refresh ancestor MBRs regardless.
		if !overfull {
			for i := len(t.path) - 1; i >= 0; i-- {
				p := t.path[i]
				p.rect = p.rect.Union(n.rect)
				n = p
			}
			return
		}
		left, right := split(n)
		if len(t.path) == 0 {
			// n was the root: grow.
			t.root = &node{
				leaf:     false,
				children: []*node{left, right},
				rect:     left.rect.Union(right.rect),
			}
			return
		}
		parent := t.path[len(t.path)-1]
		t.path = t.path[:len(t.path)-1]
		// Replace n with the two halves.
		for i, c := range parent.children {
			if c == n {
				parent.children[i] = left
				parent.children = append(parent.children, right)
				break
			}
		}
		parent.rect = parent.rect.Union(left.rect).Union(right.rect)
		n = parent
	}
}

// split performs a quadratic split of an overfull node into two.
func split(n *node) (*node, *node) {
	if n.leaf {
		seedA, seedB := quadraticSeeds(len(n.items), func(i int) geo.Rect { return n.items[i].Rect })
		a := &node{leaf: true, rect: n.items[seedA].Rect, items: []Item{n.items[seedA]}}
		b := &node{leaf: true, rect: n.items[seedB].Rect, items: []Item{n.items[seedB]}}
		for i, it := range n.items {
			if i == seedA || i == seedB {
				continue
			}
			dst := pickGroup(a, b, it.Rect, len(n.items)-i)
			dst.items = append(dst.items, it)
			dst.rect = dst.rect.Union(it.Rect)
		}
		return a, b
	}
	seedA, seedB := quadraticSeeds(len(n.children), func(i int) geo.Rect { return n.children[i].rect })
	a := &node{rect: n.children[seedA].rect, children: []*node{n.children[seedA]}}
	b := &node{rect: n.children[seedB].rect, children: []*node{n.children[seedB]}}
	for i, c := range n.children {
		if i == seedA || i == seedB {
			continue
		}
		dst := pickGroup(a, b, c.rect, len(n.children)-i)
		dst.children = append(dst.children, c)
		dst.rect = dst.rect.Union(c.rect)
	}
	return a, b
}

// quadraticSeeds picks the pair wasting the most area together.
func quadraticSeeds(n int, rect func(int) geo.Rect) (int, int) {
	worst := math.Inf(-1)
	sa, sb := 0, 1
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u := rect(i).Union(rect(j))
			waste := u.Area() - rect(i).Area() - rect(j).Area()
			if waste > worst {
				worst, sa, sb = waste, i, j
			}
		}
	}
	return sa, sb
}

// pickGroup assigns r to the group needing less enlargement, while keeping
// both groups above the minimum fill.
func pickGroup(a, b *node, r geo.Rect, remaining int) *node {
	sizeOf := func(n *node) int {
		if n.leaf {
			return len(n.items)
		}
		return len(n.children)
	}
	if sizeOf(a)+remaining <= minEntries {
		return a
	}
	if sizeOf(b)+remaining <= minEntries {
		return b
	}
	growA := a.rect.Union(r).Area() - a.rect.Area()
	growB := b.rect.Union(r).Area() - b.rect.Area()
	if growA < growB {
		return a
	}
	return b
}

// Search calls fn for every item whose rect intersects query. fn returning
// false stops the search.
func (t *Tree) Search(query geo.Rect, fn func(Item) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if !n.rect.Intersects(query) {
			return true
		}
		if n.leaf {
			for _, it := range n.items {
				if it.Rect.Intersects(query) {
					if !fn(it) {
						return false
					}
				}
			}
			return true
		}
		for _, c := range n.children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}
