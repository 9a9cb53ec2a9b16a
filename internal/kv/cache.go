package kv

import (
	"container/list"
	"sync"
)

// blockCache is an LRU cache over SSTable data blocks, keyed by (table
// sequence number, block index). HBase's block cache plays the same role:
// hot blocks of the read path stay in memory across scans. Safe for
// concurrent use; cached block slices are shared and must be treated as
// read-only by callers.
type blockCache struct {
	mu       sync.Mutex
	capacity int64 // bytes
	size     int64
	ll       *list.List // front = most recent
	items    map[blockKey]*list.Element
}

type blockKey struct {
	seq   uint64
	block int
}

type blockEntry struct {
	key  blockKey
	data []byte
}

func newBlockCache(capacity int64) *blockCache {
	return &blockCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[blockKey]*list.Element),
	}
}

// get returns the cached block or nil.
func (c *blockCache) get(k blockKey) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*blockEntry).data
	}
	return nil
}

// put inserts a block, evicting least-recently-used blocks over capacity.
func (c *blockCache) put(k blockKey, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if e, ok := c.items[k]; ok {
		c.ll.MoveToFront(e)
		old := e.Value.(*blockEntry)
		c.size += int64(len(data)) - int64(len(old.data))
		old.data = data
	} else {
		e := c.ll.PushFront(&blockEntry{key: k, data: data})
		c.items[k] = e
		c.size += int64(len(data))
	}
	for c.size > c.capacity && c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
	}
}

// dropTable evicts every block of a compacted-away table.
func (c *blockCache) dropTable(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.ll.Front(); e != nil; {
		next := e.Next()
		if e.Value.(*blockEntry).key.seq == seq {
			c.removeLocked(e)
		}
		e = next
	}
}

// drop evicts one block, if cached.
func (c *blockCache) drop(k blockKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.removeLocked(e)
	}
}

func (c *blockCache) removeLocked(e *list.Element) {
	be := e.Value.(*blockEntry)
	c.ll.Remove(e)
	delete(c.items, be.key)
	c.size -= int64(len(be.data))
}
