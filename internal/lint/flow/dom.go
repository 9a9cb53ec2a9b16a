package flow

// Dominator computation: the iterative Cooper–Harvey–Kennedy algorithm over a
// reverse-postorder numbering. Function CFGs here are tiny (tens of blocks),
// so the simple O(n²) worst case is irrelevant; what matters is that the
// result is exact, including for the irreducible graphs goto can produce.

// DomTree holds the dominator relation of a Graph's reachable blocks.
type DomTree struct {
	g     *Graph
	idom  []*Block // immediate dominator by Block.Index; nil for Entry and unreachable blocks
	rpo   []*Block // reachable blocks in reverse postorder
	rpoNo []int    // Block.Index -> position in rpo; -1 when unreachable
}

// Dominators computes the dominator tree of g's blocks reachable from Entry.
func (g *Graph) Dominators() *DomTree {
	d := &DomTree{
		g:     g,
		idom:  make([]*Block, len(g.Blocks)),
		rpoNo: make([]int, len(g.Blocks)),
	}
	for i := range d.rpoNo {
		d.rpoNo[i] = -1
	}
	// Postorder DFS from Entry, then reverse.
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	d.rpo = make([]*Block, len(post))
	for i, b := range post {
		d.rpo[len(post)-1-i] = b
	}
	for i, b := range d.rpo {
		d.rpoNo[b.Index] = i
	}

	d.idom[g.Entry.Index] = g.Entry
	for changed := true; changed; {
		changed = false
		for _, b := range d.rpo {
			if b == g.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if d.rpoNo[p.Index] < 0 || d.idom[p.Index] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b.Index] != newIdom {
				d.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	d.idom[g.Entry.Index] = nil // Entry has no immediate dominator
	return d
}

// intersect walks the two blocks' dominator chains to their closest common
// dominator.
func (d *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for d.rpoNo[a.Index] > d.rpoNo[b.Index] {
			a = d.idom[a.Index]
		}
		for d.rpoNo[b.Index] > d.rpoNo[a.Index] {
			b = d.idom[b.Index]
		}
	}
	return a
}

// Reachable reports whether b is reachable from the graph entry.
func (d *DomTree) Reachable(b *Block) bool { return d.rpoNo[b.Index] >= 0 }

// Dominates reports whether a dominates b: every path from Entry to b passes
// through a. A block dominates itself. Unreachable blocks are dominated by
// nothing and dominate nothing.
func (d *DomTree) Dominates(a, b *Block) bool {
	if !d.Reachable(a) || !d.Reachable(b) {
		return false
	}
	for b != nil {
		if b == a {
			return true
		}
		b = d.idom[b.Index]
	}
	return false
}

// Loop is one natural loop: a back edge's target (the header) plus every
// block that can reach the back edge without leaving through the header.
type Loop struct {
	Head *Block
	// Body is the loop's block set, including Head.
	Body map[*Block]bool
}

// NaturalLoops finds the graph's natural loops via back edges (edges u→v
// where v dominates u). Loops sharing a header are merged. The goto-formed
// loop and the labeled-continue loop come out the same as for/range loops,
// which is why the loop-hygiene analyzers use this rather than matching
// ast.ForStmt.
func (d *DomTree) NaturalLoops() []*Loop {
	byHead := map[*Block]*Loop{}
	var order []*Block // stable output order: first sighting of each header
	for _, u := range d.rpo {
		for _, v := range u.Succs {
			if !d.Dominates(v, u) {
				continue
			}
			l := byHead[v]
			if l == nil {
				l = &Loop{Head: v, Body: map[*Block]bool{v: true}}
				byHead[v] = l
				order = append(order, v)
			}
			// Walk predecessors backwards from the back edge's source,
			// stopping at the header.
			stack := []*Block{u}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Body[b] || !d.Reachable(b) {
					continue
				}
				l.Body[b] = true
				stack = append(stack, b.Preds...)
			}
		}
	}
	loops := make([]*Loop, 0, len(order))
	for _, h := range order {
		loops = append(loops, byHead[h])
	}
	return loops
}
