package stm

import (
	"context"
	"errors"
)

// Func is a value-returning transaction body: the typed form of Body.
// Like a Body it must be a deterministic function of (age, memory),
// must access shared state only through the transaction handle, and
// may be executed many times before its age commits — the runtime
// discards every speculative result and latches only the value
// computed by the attempt that actually commits (see TicketOf).
type Func[R any] func(tx Tx, age int) R

// TicketOf tracks one value-returning submission: it embeds the
// ordinary Ticket resolution machinery (Age, Done, Err, Wait,
// WaitCtx) and latches the transaction's result R exactly once, at
// commit.
//
// The value-latching rule (DESIGN.md §10): a Func may run several
// times — aborted speculative attempts, validator re-executions — and
// every attempt computes an R, but attempts for one age never overlap
// in time and the attempt that commits is always the last one to run.
// The runtime therefore publishes each attempt's R into the ticket
// and lets the commit's happens-before edge (the same one that orders
// the transaction's memory effects before ticket resolution) carry
// the final overwrite to the waiter: once the ticket resolves, Value
// observes exactly the committing attempt's R, and no speculative
// value can be observed because Value refuses to read before
// resolution.
type TicketOf[R any] struct {
	Ticket
	fn  Func[R]
	cur R // latched by the committing attempt (see rule above)
}

// run adapts the typed Func to the engine's Body contract, recording
// the attempt's result. It is the only writer of cur; readers gate on
// ticket resolution.
func (t *TicketOf[R]) run(tx Tx, age int) { t.cur = t.fn(tx, age) }

// Value blocks until the ticket resolves and returns the committed
// attempt's result. If the transaction did not commit (pipeline
// stopped, this transaction faulted), it returns the zero R and the
// resolution error.
func (t *TicketOf[R]) Value() (R, error) {
	if err := t.Ticket.Wait(); err != nil {
		var zero R
		return zero, err
	}
	return t.cur, nil
}

// ValueCtx is Value with a caller-side deadline (Ticket.WaitCtx's
// semantics: cancellation abandons this wait only, never the
// transaction or its latched value).
func (t *TicketOf[R]) ValueCtx(ctx context.Context) (R, error) {
	if err := t.Ticket.WaitCtx(ctx); err != nil {
		var zero R
		return zero, err
	}
	return t.cur, nil
}

// SubmitFunc submits a value-returning transaction to the pipeline:
// fn is executed under the same predefined-order guarantees as a
// Submit body, and the returned TicketOf resolves when its age
// commits, carrying the committing attempt's result. (A free function
// rather than a method because Go methods cannot introduce type
// parameters.)
//
// On a pipeline configured with a WAL it returns ErrPayloadRequired —
// opaque funcs cannot be replayed; use SubmitPayloadT with a typed
// codec instead.
func SubmitFunc[R any](p *Pipeline, fn Func[R]) (*TicketOf[R], error) {
	return SubmitFuncCtx[R](nil, p, fn)
}

// SubmitFuncCtx is SubmitFunc with SubmitCtx's cancellable
// backpressure wait: a nil ctx never cancels; a cancellation before
// an age is assigned withdraws the submission with an error wrapping
// ErrCanceled.
func SubmitFuncCtx[R any](ctx context.Context, p *Pipeline, fn Func[R]) (*TicketOf[R], error) {
	if fn == nil {
		return nil, errors.New("stm: nil func")
	}
	if p.s.dur != nil {
		return nil, ErrPayloadRequired
	}
	t := &TicketOf[R]{fn: fn}
	if err := p.submitWith(ctx, &t.Ticket, t.run, nil); err != nil {
		return nil, err
	}
	return t, nil
}
