// Package locksviol seeds violations for the locks analyzer: Lock() calls
// with no matching Unlock(). Copied-lock shapes (by-value parameter, receiver,
// assignment, range value) are go vet's copylocks check, not this analyzer's.
package locksviol

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

type rw struct {
	mu sync.RWMutex
	m  map[string]int
}

func lockNoUnlock(c *counter) { // this line intentionally clean
	c.mu.Lock() // want "Lock\(\) with no .*Unlock"
	c.n++
}

func rlockNoRUnlock(r *rw) int {
	r.mu.RLock() // want "RLock\(\) with no .*RUnlock"
	defer r.mu.Unlock()
	return r.m["k"]
}

// Balanced usage must not be flagged.
func balanced(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func balancedRead(r *rw) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m["k"]
}
