package meta

import (
	"sync"
	"sync/atomic"
)

// Order tracks the Age-based Commit Order (ACO) progress of one engine
// instantiation: how many transactions have committed so far, which
// equals the age of the next transaction allowed to commit. Blocked
// engines wait on it for their turn; cooperative engines use it to
// decide reachability; the executor uses it to throttle run-ahead
// (Algorithm 5's MAX/MIN window).
//
// The frontier is open-ended: nothing in Order assumes a batch size, so
// the same state serves a one-shot Executor.Run and an unbounded
// stm.Pipeline. The committed count is an atomic for cheap reads on hot
// paths. Every wait follows one rule: spin briefly (Spin polls the
// condition, yielding between polls), then sleep on a condition
// variable, so a wait for the next commit or two — most waits — seldom
// pays for a park and its wake-up, and a wait for a stalled age does
// not keep a processor busy. Sleepers register in a count before their
// last check, so Complete and Kick wake only when someone sleeps.
type Order struct {
	// committed is the hottest word in the system — every reachability
	// check, frontier poll and ring scan loads it — so it gets its own
	// cache lines: the leading pad keeps it off whatever precedes the
	// Order allocation, the trailing pad keeps the halt flag and mutex
	// (written on the slow path) from sharing its line.
	_         [64]byte
	committed atomic.Uint64 // == next age to commit
	_         [56]byte
	halted    atomic.Bool   // run stopped; all waits must return
	haltc     chan struct{} // closed by Halt, for select-based waiters

	// sleepers counts the waiters parked (or about to park) on cond. A
	// waiter increments it under mu before its final check of the
	// condition and decrements it under mu after it; a waker changes
	// the condition first and then loads the count, taking mu and
	// broadcasting only when it is nonzero. Both sides are sequentially
	// consistent atomics, so either the waiter's check sees the change
	// or the waker sees the waiter — and then its broadcast, under mu,
	// cannot fall between the waiter's check and its Wait.
	sleepers atomic.Int32

	mu   sync.Mutex
	cond *sync.Cond
}

// NewOrder returns order state starting at age 0.
func NewOrder() *Order { return NewOrderAt(0) }

// NewOrderAt returns order state whose first committable age is start.
// A pipeline resuming from a snapshot (a replica rejoining at a known
// consensus slot, a loop restarting at an iteration index) seeds the
// frontier here instead of renumbering its transactions from zero.
func NewOrderAt(start uint64) *Order {
	o := &Order{haltc: make(chan struct{})}
	o.committed.Store(start)
	o.cond = sync.NewCond(&o.mu)
	return o
}

// Committed returns the number of committed transactions (== the next
// age that may commit).
func (o *Order) Committed() uint64 { return o.committed.Load() }

// Reachable reports whether every transaction with age lower than age
// has committed.
func (o *Order) Reachable(age uint64) bool { return o.committed.Load() >= age }

// WaitTurn blocks until it is age's turn to commit, the order halts, or
// doomed() becomes true, whichever is first; it returns true iff the
// turn arrived. Aborters that doom a waiting transaction must call Kick
// to wake it.
func (o *Order) WaitTurn(age uint64, doomed func() bool) bool {
	if o.committed.Load() == age {
		// Even at the frontier, a halted order must not report the
		// turn: a fault has already resolved this age's outcome, and
		// committing now would break the "stopped ages did not
		// commit" contract for a whole chain of parked waiters.
		return !o.halted.Load()
	}
	ready := func() bool {
		return o.committed.Load() == age || o.halted.Load() || (doomed != nil && doomed())
	}
	if !Spin(ready) {
		o.sleep(ready)
	}
	return o.committed.Load() == age && !o.halted.Load()
}

// RetriesBeforeReachable is the retry throttle's last step: an age
// that has aborted this many times waits until it is reachable before
// it executes again, which starves out retry storms under heavy
// conflicts (Algorithm 5 line 18).
const RetriesBeforeReachable = 6

// WaitReachable blocks until committed >= age, the order halts, or
// cancel() reports true (used by the executor's run-ahead throttle).
// Cancellers must call Kick to wake waiters.
func (o *Order) WaitReachable(age uint64, cancel func() bool) {
	if o.committed.Load() >= age {
		return
	}
	ready := func() bool {
		return o.committed.Load() >= age || o.halted.Load() || (cancel != nil && cancel())
	}
	if !Spin(ready) {
		o.sleep(ready)
	}
}

// sleep parks on the condition variable until ready holds: the sleep
// half of the wait rule. The sleeper is counted before the first check
// under mu (see Order.sleepers).
func (o *Order) sleep(ready func() bool) {
	o.mu.Lock()
	o.sleepers.Add(1)
	for !ready() {
		o.cond.Wait()
	}
	o.sleepers.Add(-1)
	o.mu.Unlock()
}

// Complete marks age as committed (it must be the current turn) and
// wakes every sleeping waiter.
func (o *Order) Complete(age uint64) {
	if !o.committed.CompareAndSwap(age, age+1) {
		panic("meta: Order.Complete out of order")
	}
	o.Kick()
}

// Kick wakes all sleeping waiters so they can re-check their doom or
// cancel flags; spinning waiters re-check on their own. It takes the
// mutex only when a sleeper is registered (see Order.sleepers).
func (o *Order) Kick() {
	if o.sleepers.Load() == 0 {
		return
	}
	o.mu.Lock()
	o.cond.Broadcast()
	o.mu.Unlock()
}

// Halt permanently cancels every current and future wait on the order:
// WaitTurn returns false and WaitReachable returns immediately. The
// executor halts the order when a run stops on a fault, so that no
// worker stays parked waiting for a turn that will never come (ages
// below it were abandoned, not committed).
func (o *Order) Halt() {
	if o.halted.CompareAndSwap(false, true) {
		close(o.haltc)
	}
	o.Kick()
}

// Halted reports whether Halt was called.
func (o *Order) Halted() bool { return o.halted.Load() }

// HaltCh returns a channel closed when the order halts, so goroutines
// multiplexing on channels (the STMLite commit manager) can observe
// the stop without polling the condition variable.
func (o *Order) HaltCh() <-chan struct{} { return o.haltc }
