package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func randRect(rng *rand.Rand) geo.Rect {
	x, y := rng.Float64(), rng.Float64()
	w, h := rng.Float64()*0.05, rng.Float64()*0.05
	return geo.Rect{Min: geo.Point{X: x, Y: y}, Max: geo.Point{X: x + w, Y: y + h}}
}

func bruteSearch(items []Item, q geo.Rect) map[int]bool {
	out := map[int]bool{}
	for _, it := range items {
		if it.Rect.Intersects(q) {
			out[it.Data] = true
		}
	}
	return out
}

// build inserts items one by one, the way the DFT baseline builds its trees.
func build(items []Item) *Tree {
	tree := New()
	for _, it := range items {
		tree.Insert(it)
	}
	return tree
}

func collect(t *Tree, q geo.Rect) map[int]bool {
	out := map[int]bool{}
	t.Search(q, func(it Item) bool {
		out[it.Data] = true
		return true
	})
	return out
}

func TestInsertSearchMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tree := New()
	var items []Item
	for i := 0; i < 2000; i++ {
		it := Item{Rect: randRect(rng), Data: i}
		items = append(items, it)
		tree.Insert(it)
	}
	if tree.Len() != 2000 {
		t.Fatalf("len = %d", tree.Len())
	}
	for q := 0; q < 50; q++ {
		query := randRect(rng)
		got := collect(tree, query)
		want := bruteSearch(items, query)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d, want %d", q, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("query %d: missing item %d", q, id)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var items []Item
	for i := 0; i < 500; i++ {
		items = append(items, Item{Rect: randRect(rng), Data: i})
	}
	tree := build(items)
	count := 0
	tree.Search(geo.World, func(Item) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

// The root MBR starts empty and grows to cover every insert, and an empty or
// single-item tree answers searches.
func TestBoundsGrow(t *testing.T) {
	tree := New()
	if !tree.root.rect.IsEmpty() {
		t.Fatal("empty tree must have empty bounds")
	}
	if got := collect(tree, geo.World); len(got) != 0 {
		t.Fatalf("empty tree found %v", got)
	}
	tree.Insert(Item{Rect: geo.Rect{Min: geo.Point{X: 0.1, Y: 0.1}, Max: geo.Point{X: 0.2, Y: 0.2}}, Data: 7})
	if got := collect(tree, geo.World); len(got) != 1 || !got[7] {
		t.Fatalf("single-item tree: %v", got)
	}
	tree.Insert(Item{Rect: geo.Rect{Min: geo.Point{X: 0.8, Y: 0.8}, Max: geo.Point{X: 0.9, Y: 0.9}}, Data: 8})
	b := tree.root.rect
	if b.Min.X > 0.1 || b.Min.Y > 0.1 || b.Max.X < 0.9 || b.Max.Y < 0.9 {
		t.Fatalf("bounds %v do not cover inserts", b)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tree := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Insert(Item{Rect: randRect(rng), Data: i})
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	items := make([]Item, 50000)
	for i := range items {
		items[i] = Item{Rect: randRect(rng), Data: i}
	}
	tree := build(items)
	q := geo.Rect{Min: geo.Point{X: 0.4, Y: 0.4}, Max: geo.Point{X: 0.45, Y: 0.45}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tree.Search(q, func(Item) bool { n++; return true })
	}
}
