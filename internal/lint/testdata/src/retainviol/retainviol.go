// Package retainviol seeds violations for the loopretain analyzer: defer
// accumulation inside loops (for/range and goto-formed).
package retainviol

type handle struct{}

func (handle) Close() error { return nil }

func open(name string) handle { return handle{} }

// deferInLoop holds every handle until the function returns.
func deferInLoop(names []string) {
	for _, n := range names {
		f := open(n)
		defer f.Close() // want "defer inside a loop"
	}
}

// deferInGotoLoop is the same bug spelled with goto; natural-loop detection
// on the CFG catches it even though there is no for statement.
func deferInGotoLoop(n int) {
	i := 0
again:
	f := open("x")
	defer f.Close() // want "defer inside a loop"
	i++
	if i < n {
		goto again
	}
}

// produceRetains is the channel-producer shape of the same bug: a streaming
// scan that opens one region handle per iteration and defers the Close holds
// every region open until the whole stream finishes — exactly what a
// bounded-memory pipeline must not do.
func produceRetains(names []string, out chan<- int) {
	for i, n := range names {
		f := open(n)
		defer f.Close() // want "defer inside a loop"
		out <- i
	}
}
