package stm

import (
	"context"
	"errors"
	"fmt"

	"github.com/orderedstm/ostm/internal/latch"
)

// ErrClosed is returned by Pipeline.Submit after Close has been
// called.
var ErrClosed = errors.New("stm: pipeline closed")

// ErrStopped is the sentinel a *Stopped resolution matches through
// errors.Is: callers that only care whether the pipeline stopped —
// not which transaction stopped it — test errors.Is(err, ErrStopped)
// instead of type-asserting *Stopped.
var ErrStopped = errors.New("stm: pipeline stopped")

// ErrCanceled is the sentinel wrapped by every context-cancellation
// error the package returns (SubmitCtx, WaitCtx and their sharded
// equivalents): errors.Is(err, ErrCanceled) distinguishes "the caller
// gave up" from every transaction outcome. The returned errors also
// wrap the context's own error, so errors.Is(err, context.Canceled) /
// context.DeadlineExceeded keep working.
//
// Cancellation never loses an already-assigned age: SubmitCtx only
// observes the context while the submission can still be withdrawn
// without leaving a gap in the predefined order (the backpressure
// wait), and WaitCtx abandons only the caller's wait — the ticket
// stays registered and resolves with the transaction's real outcome.
var ErrCanceled = errors.New("stm: canceled")

// Stopped is the error resolving tickets whose age can no longer
// commit because the pipeline stopped on a fault, and the error
// Submit returns once the pipeline has stopped. Fault identifies the
// transaction that stopped the stream. errors.As(err, **Fault) works
// through it, and errors.Is(err, ErrStopped) matches it.
type Stopped struct {
	Fault *Fault
}

// Error implements error.
func (s *Stopped) Error() string {
	return fmt.Sprintf("stm: pipeline stopped by fault at age %d", s.Fault.Age)
}

// Unwrap exposes the underlying fault.
func (s *Stopped) Unwrap() error { return s.Fault }

// Is reports that a *Stopped matches the ErrStopped sentinel.
func (s *Stopped) Is(target error) bool { return target == ErrStopped }

// Ticket tracks one submitted transaction through the pipeline. It is
// resolved exactly once: with nil when its age commits, with the
// *Fault itself if this transaction faulted non-speculatively, or
// with a *Stopped error if the pipeline stopped before this age could
// commit.
type Ticket struct {
	age  uint64
	done latch.Latch
	err  error // written once, before done resolves
	ts   int64 // UnixNano at age assignment; 0 unless Config.Obs is set
}

// Age returns the commit-order position (consensus slot, loop index)
// the pipeline assigned to this submission.
func (t *Ticket) Age() uint64 { return t.age }

// Done returns a channel closed when the ticket resolves; use it to
// select across tickets and other events. The channel is made on the
// first call (a ticket nobody selects on or parks on never owns one).
func (t *Ticket) Done() <-chan struct{} { return t.done.Done() }

// Err is a non-blocking peek at the ticket's outcome: resolved=false
// while the transaction is still in flight, otherwise the error Wait
// would return (nil for a commit). It lets a server poll tickets — or
// combine Done with an immediate outcome read — without parking a
// goroutine in Wait.
func (t *Ticket) Err() (err error, resolved bool) {
	if !t.done.Resolved() {
		return nil, false
	}
	return t.err, true
}

// Wait blocks until the ticket resolves and returns its outcome: nil
// once the transaction committed (its effects are visible and every
// lower age has committed, for ordered algorithms), or the error the
// ticket was resolved with. On an already-resolved ticket it is one
// atomic load.
func (t *Ticket) Wait() error {
	t.done.Wait()
	return t.err
}

// WaitCtx is Wait with a caller-side deadline: it returns the
// ticket's outcome, or an error wrapping ErrCanceled (and ctx's own
// error) if the context ends first. Cancellation abandons only this
// wait — the transaction keeps its age, still commits, and the ticket
// resolves normally for any other waiter (and for a later Wait).
func (t *Ticket) WaitCtx(ctx context.Context) error {
	if t.done.Resolved() {
		return t.err
	}
	select {
	case <-t.done.Done():
		return t.err
	case <-ctx.Done():
		return fmt.Errorf("%w waiting for age %d: %w", ErrCanceled, t.age, ctx.Err())
	}
}

// resolve completes the ticket. Callers serialize through the
// stream's mutex and clear their reference afterwards, so a ticket is
// resolved at most once.
func (t *Ticket) resolve(err error) {
	t.err = err
	t.done.Resolve()
}
