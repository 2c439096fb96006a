package shard

import (
	"context"
	"errors"

	"github.com/orderedstm/ostm/stm"
)

// TicketOf tracks one value-returning sharded submission: the sharded
// sibling of stm.TicketOf. It wraps the ordinary Ticket (Age, Done,
// Err, Wait, WaitCtx all apply) and latches the transaction's typed
// result exactly once, at commit, under the same value-latching rule
// (DESIGN.md §10): attempts of one global age never overlap — worker
// retries, validator re-executions and cross-shard round restarts all
// run the body serially, with a happens-before edge from the final
// execution to ticket resolution — so the value visible after
// resolution is exactly the committing attempt's, and Value refuses
// to read before resolution.
type TicketOf[R any] struct {
	*Ticket
	fn  stm.Func[R]
	cur R
}

// run adapts the typed Func to the router's Body contract.
func (t *TicketOf[R]) run(tx stm.Tx, age int) { t.cur = t.fn(tx, age) }

// Value blocks until the ticket resolves and returns the committed
// attempt's result, or the zero R and the resolution error if the
// transaction did not commit.
func (t *TicketOf[R]) Value() (R, error) {
	if err := t.Ticket.Wait(); err != nil {
		var zero R
		return zero, err
	}
	return t.cur, nil
}

// ValueCtx is Value with a caller-side deadline (WaitCtx semantics:
// cancellation abandons this wait only, never the transaction or its
// latched value).
func (t *TicketOf[R]) ValueCtx(ctx context.Context) (R, error) {
	if err := t.Ticket.WaitCtx(ctx); err != nil {
		var zero R
		return zero, err
	}
	return t.cur, nil
}

// SubmitFunc submits a value-returning transaction to the sharded
// pipeline: access declares the variables fn may touch (every word of
// every typed variable — stm.Touches(v.Vars()...) for a TVar), fn
// runs under the global predefined order exactly like a Submit body
// (single-shard or cross-shard per the declaration), and the returned
// TicketOf resolves when the transaction committed on every involved
// shard, carrying the committing attempt's result. ctx bounds the
// backpressure wait with SubmitCtx's withdrawal rule (a nil ctx never
// cancels).
func SubmitFunc[R any](ctx context.Context, sp *ShardedPipeline, access stm.Access, fn stm.Func[R]) (*TicketOf[R], error) {
	if fn == nil {
		return nil, errors.New("shard: nil func")
	}
	if sp.dr != nil {
		return nil, stm.ErrPayloadRequired
	}
	t := &TicketOf[R]{fn: fn}
	tk, err := sp.route(ctx, access, t.run, nil)
	if err != nil {
		return nil, err
	}
	t.Ticket = tk
	return t, nil
}
