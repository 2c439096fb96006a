package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/orderedstm/ostm/internal/latch"
	"github.com/orderedstm/ostm/stm"
)

// Ticket tracks one submission through the sharded pipeline. Age is
// the transaction's position in the global predefined order. A ticket
// resolves with nil once the transaction committed on every involved
// shard, with the *stm.Fault itself if this transaction faulted, or
// with a *stm.Stopped error (carrying the global fault) if the system
// stopped before this transaction could commit.
//
// Resolution guarantees the per-shard prefix property: on each shard
// the transaction touched, every transaction with a lower global age
// that also touched that shard has committed. (Transactions at lower
// global ages confined to other shards may still be in flight — that
// independence is exactly where the sharded throughput comes from; the
// cross-shard fences re-synchronize wherever data could actually
// flow, which is what keeps results equal to the sequential order.)
type Ticket struct {
	g  uint64
	sp *ShardedPipeline

	// A single-shard ticket delegates to the owning pipeline's ticket
	// (local); every other ticket learns its outcome through res.
	local *stm.Ticket
	res   *outcome
}

// outcome is the resolution of a ticket that is not one shard's own:
// a cross-shard transaction's (the fence tickets it committed through)
// or a WaitDurable one's (resolved by the router at durability).
type outcome struct {
	// parts, when set, are the cross-shard transaction's participants.
	// It has committed on every involved shard once each of their fence
	// tickets resolved, so those are the outcome: nothing else resolves
	// it, and no goroutine waits on it unless Done asks for a channel.
	parts   []part
	watched atomic.Bool // Done started the fence watcher

	// done resolves when the router settles a WaitDurable ticket (err
	// is written once, before), or, for a cross-shard ticket, when the
	// watcher saw every fence resolve.
	done latch.Latch
	err  error
}

// Age returns the transaction's global predefined-order position.
func (t *Ticket) Age() uint64 { return t.g }

// Done returns a channel closed when the ticket resolves. For a
// cross-shard ticket the first call starts one goroutine that closes
// it once every fence ticket resolved.
func (t *Ticket) Done() <-chan struct{} {
	if t.local != nil {
		return t.local.Done()
	}
	o := t.res
	if o.parts != nil && o.watched.CompareAndSwap(false, true) {
		// It exits once the last fence resolves, which every fence does
		// by the time Close returns.
		go func() {
			for i := range o.parts {
				o.parts[i].ft.Wait()
			}
			o.done.Resolve()
		}()
	}
	return o.done.Done()
}

// Wait blocks until the ticket resolves and returns its outcome.
func (t *Ticket) Wait() error { return t.wait(nil) }

// WaitCtx is Wait with a caller-side deadline (stm.Ticket.WaitCtx's
// semantics): it returns the ticket's outcome, or an error wrapping
// stm.ErrCanceled if the context ends first. Cancellation abandons
// only this wait — the transaction keeps its global age and the
// ticket resolves normally for any later waiter.
func (t *Ticket) WaitCtx(ctx context.Context) error { return t.wait(ctx) }

// wait is Wait, or WaitCtx for a non-nil ctx.
func (t *Ticket) wait(ctx context.Context) error {
	var err error
	switch o := t.res; {
	case t.local != nil:
		err = waitOn(ctx, t.local)
	case o.parts != nil:
		for i := range o.parts {
			e := waitOn(ctx, &o.parts[i].ft)
			if e != nil && errors.Is(e, stm.ErrCanceled) {
				err = e
				break
			}
			if err == nil {
				err = e
			}
		}
	case ctx == nil:
		o.done.Wait()
		err = o.err
	case o.done.Resolved():
		err = o.err
	default:
		select {
		case <-o.done.Done():
			err = o.err
		case <-ctx.Done():
			err = stm.ErrCanceled
		}
	}
	if err != nil && errors.Is(err, stm.ErrCanceled) {
		// The caller gave up; do not rewrite the cancellation into the
		// global fault vocabulary (the ticket is unresolved) — but do
		// speak global ages, not a shard-local one.
		return fmt.Errorf("%w waiting for global age %d: %w", stm.ErrCanceled, t.g, ctx.Err())
	}
	return t.sp.translate(t.g, err)
}

// waitOn waits for a shard pipeline's ticket, bounded by ctx if set.
func waitOn(ctx context.Context, lt *stm.Ticket) error {
	if ctx == nil {
		return lt.Wait()
	}
	return lt.WaitCtx(ctx)
}

// Err is a non-blocking peek at the outcome: resolved=false while the
// transaction is in flight, otherwise the error Wait would return.
func (t *Ticket) Err() (err error, resolved bool) {
	switch o := t.res; {
	case t.local != nil:
		if err, resolved = t.local.Err(); !resolved {
			return nil, false
		}
	case o.parts != nil:
		for i := range o.parts {
			e, ok := o.parts[i].ft.Err()
			if !ok {
				return nil, false
			}
			if err == nil {
				err = e
			}
		}
	default:
		if !o.done.Resolved() {
			return nil, false
		}
		err = o.err
	}
	return t.sp.translate(t.g, err), true
}
