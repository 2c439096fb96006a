// Package latch is the one-shot resolution latch behind stm.Ticket,
// shard.Ticket and serve.Call: resolved exactly once per life, waited
// on by any number of goroutines, and without a heap object of its own.
//
// Acknowledgements leave the pipeline in age order and are consumed in
// age order, so most waits find their ticket already resolved: that
// case is one atomic load. A waiter that does have to park borrows a
// pooled wake-up channel for the length of the wait, so it allocates
// nothing in steady state either. Only Done — a channel the caller
// keeps, to select on — makes one, on first use.
package latch

import (
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	resolved = 1 << iota // Resolve ran; the owner's outcome fields are final
	waiting              // the waiter list is not empty
	busy                 // a goroutine is editing the waiter list
	armed                // Arm ran and Resolve has not yet
)

// Latch is a one-shot event. The zero value is an unresolved latch. It
// must not be copied after first use. Arm turns a resolved latch back
// into an unresolved one, for a new life.
//
// The state word carries the happens-before edge of the structure that
// embeds the latch: everything the resolver wrote before Resolve (a
// ticket's error, a typed ticket's latched value) is visible to a
// goroutine that observed Resolved() == true, returned from Wait, or
// received from Done.
type Latch struct {
	state atomic.Uint32
	// head lists whoever must be told. It is only touched with the
	// busy bit held, for a handful of instructions at a time (nothing
	// under it allocates or blocks), so contenders — goroutines meeting
	// on this one latch — yield rather than queue.
	head *waiter
}

// waiter is one registration on a latch: a parked Wait (wake has room
// for the one token Resolve sends, and the node goes back to the pool
// afterwards) or the channel Done handed out (watch; Resolve closes
// it).
type waiter struct {
	next  *waiter
	wake  chan struct{}
	watch bool
}

var parked = sync.Pool{New: func() any { return &waiter{wake: make(chan struct{}, 1)} }}

// closedChan is what Done returns once the latch has resolved.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Resolved reports whether Resolve has run: one atomic load.
func (l *Latch) Resolved() bool { return l.state.Load()&resolved != 0 }

// lock takes the busy bit; it reports false, without taking it, if
// the latch has resolved (the list is gone and nothing may be added).
func (l *Latch) lock() bool {
	for {
		s := l.state.Load()
		switch {
		case s&resolved != 0:
			return false
		case s&busy != 0:
			runtime.Gosched() // held for a few instructions; let the holder finish
		case l.state.CompareAndSwap(s, s|busy):
			return true
		}
	}
}

// unlock drops the busy bit, publishing the list.
func (l *Latch) unlock() {
	s := l.state.Load() & armed
	if l.head != nil {
		s |= waiting
	}
	l.state.Store(s)
}

// Arm starts a life: it takes a fresh or resolved latch to unresolved
// and armed, and reports true. It reports false, changing nothing, for
// a latch that is armed and not yet resolved — or that anybody is
// waiting on. A resolved latch may be armed again only once every
// waiter of its previous life has returned: one still on its way in
// would wait for the new life instead.
func (l *Latch) Arm() bool {
	s := l.state.Load()
	return (s == 0 || s == resolved) && l.state.CompareAndSwap(s, armed)
}

// Armed reports whether the latch is armed and has not resolved: the
// life Arm started is still in flight.
func (l *Latch) Armed() bool { return l.state.Load()&armed != 0 }

// Resolve fires the latch. It must be called exactly once per life.
// With nobody registered it is a single compare-and-swap.
func (l *Latch) Resolve() {
	if s := l.state.Load(); s&^armed == 0 && l.state.CompareAndSwap(s, resolved) {
		return
	}
	l.lock() // cannot report false: this is the only resolver
	w := l.head
	l.head = nil
	l.state.Store(resolved)
	for w != nil {
		next := w.next // a woken waiter recycles its node at once
		if w.watch {
			close(w.wake)
		} else {
			w.wake <- struct{}{}
		}
		w = next
	}
}

// Wait blocks until the latch resolves.
func (l *Latch) Wait() {
	if l.Resolved() {
		return
	}
	w := parked.Get().(*waiter)
	if l.lock() {
		w.next, l.head = l.head, w
		l.unlock()
		<-w.wake
		w.next = nil
	}
	parked.Put(w)
}

// Done returns a channel that is closed once the latch resolves,
// making it on first use; until then every call returns the same one.
func (l *Latch) Done() <-chan struct{} {
	var fresh *waiter
	for {
		if !l.lock() {
			return closedChan
		}
		w := l.head
		for w != nil && !w.watch {
			w = w.next
		}
		if w == nil && fresh != nil {
			fresh.next, l.head = l.head, fresh
			w = fresh
		}
		l.unlock()
		if w != nil {
			return w.wake
		}
		// First call: make the channel with the bit released, then link
		// it unless another caller got there first.
		fresh = &waiter{wake: make(chan struct{}), watch: true}
	}
}
