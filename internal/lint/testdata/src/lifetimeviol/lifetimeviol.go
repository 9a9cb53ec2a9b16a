// Package lifetimeviol seeds violations for the golifetime analyzer:
// goroutine launches with no interprocedurally visible join obligation — the
// spawned body never observes a context, channel, or WaitGroup, and the
// launch passes it none.
package lifetimeviol

import (
	"context"
	"sync"
)

func spin() {
	n := 0
	for {
		n++
	}
}

func launch() {
	go spin() // want "cannot be joined or cancelled"
}

// launchLit is the literal shape: nothing in the body, and nothing passed in.
func launchLit() {
	go func() { // want "cannot be joined or cancelled"
		spin()
	}()
}

type ticker struct{ n int }

func (t *ticker) spinMethod() {
	for {
		t.n++
	}
}

func (t *ticker) kick() {
	go t.spinMethod() // want "cannot be joined or cancelled"
}

// --- clean launches: every shape of join obligation -----------------------

func worker(done chan struct{}) {
	<-done
}

func okChanArg() {
	done := make(chan struct{})
	go worker(done) // the channel argument delegates the obligation
	close(done)
}

func watch(ctx context.Context) {
	<-ctx.Done()
}

func okCtxArg(ctx context.Context) {
	go watch(ctx)
}

type pump struct{ ch chan int }

func (p *pump) drain() {
	for range p.ch {
	}
}

// okFieldChan carries no signal in the arguments, so the analyzer must find
// the channel range inside drain's own body.
func (p *pump) okFieldChan() {
	go p.drain()
}

func (p *pump) run() {
	p.drain()
}

// okDeep only observes the channel two calls down: the summary layer carries
// the fact through run to the launch site.
func (p *pump) okDeep() {
	go p.run()
}

func okLit() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	<-ch
}

// okWaitGroup is joined through the closed-over WaitGroup.
func okWaitGroup() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
