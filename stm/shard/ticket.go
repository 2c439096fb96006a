package shard

import (
	"context"
	"errors"
	"fmt"

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

	// Exactly one of the two is used: single-shard tickets delegate to
	// the owning pipeline's ticket (no extra goroutine per
	// transaction); cross-shard tickets are resolved by an aggregator
	// once every involved shard's fence committed.
	local *stm.Ticket
	done  latch.Latch
	err   error // written once, before done resolves (cross-shard)
}

// Age returns the transaction's global predefined-order position.
func (t *Ticket) Age() uint64 { return t.g }

// Done returns a channel closed when the ticket resolves.
func (t *Ticket) Done() <-chan struct{} {
	if t.local != nil {
		return t.local.Done()
	}
	return t.done.Done()
}

// Wait blocks until the ticket resolves and returns its outcome.
func (t *Ticket) Wait() error {
	if t.local != nil {
		return t.sp.translate(t.g, t.local.Wait())
	}
	t.done.Wait()
	return t.sp.translate(t.g, t.err)
}

// WaitCtx is Wait with a caller-side deadline (stm.Ticket.WaitCtx's
// semantics): it returns the ticket's outcome, or an error wrapping
// stm.ErrCanceled if the context ends first. Cancellation abandons
// only this wait — the transaction keeps its global age and the
// ticket resolves normally for any later waiter.
func (t *Ticket) WaitCtx(ctx context.Context) error {
	if t.local != nil {
		err := t.local.WaitCtx(ctx)
		if errors.Is(err, stm.ErrCanceled) {
			// The caller gave up; do not rewrite the cancellation into
			// the global fault vocabulary (the ticket is unresolved) —
			// but do speak global ages, not the inner shard-local age.
			return fmt.Errorf("%w waiting for global age %d: %w", stm.ErrCanceled, t.g, ctx.Err())
		}
		return t.sp.translate(t.g, err)
	}
	if t.done.Resolved() {
		return t.sp.translate(t.g, t.err)
	}
	select {
	case <-t.done.Done():
		return t.sp.translate(t.g, t.err)
	case <-ctx.Done():
		return fmt.Errorf("%w waiting for global age %d: %w", stm.ErrCanceled, t.g, ctx.Err())
	}
}

// Err is a non-blocking peek at the outcome: resolved=false while the
// transaction is in flight, otherwise the error Wait would return.
func (t *Ticket) Err() (err error, resolved bool) {
	if t.local != nil {
		err, resolved = t.local.Err()
		if !resolved {
			return nil, false
		}
		return t.sp.translate(t.g, err), true
	}
	if !t.done.Resolved() {
		return nil, false
	}
	return t.sp.translate(t.g, t.err), true
}
