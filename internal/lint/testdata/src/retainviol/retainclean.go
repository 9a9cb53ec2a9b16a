package retainviol

// deferPerIteration hoists the body into a function literal: each literal
// runs its own defers when it returns, so nothing accumulates.
func deferPerIteration(names []string) {
	for _, n := range names {
		func() {
			f := open(n)
			defer f.Close()
		}()
	}
}

// produceReleases is the clean producer: the per-iteration handle lives in
// a function literal, so each region closes as soon as its batch is sent.
func produceReleases(names []string, out chan<- int) {
	for i, n := range names {
		func() {
			f := open(n)
			defer f.Close()
			out <- i
		}()
	}
}

// deferAtTop is an ordinary function-scoped defer, not in any loop.
func deferAtTop(name string) {
	f := open(name)
	defer f.Close()
	for i := 0; i < 3; i++ {
		_ = i
	}
}
