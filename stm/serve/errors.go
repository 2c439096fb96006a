package serve

import (
	"errors"
	"fmt"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

// Code is the typed wire error taxonomy: every engine error class a
// client can act on differently travels as its own single-byte code.
// The classification (CodeOf) and the client-side reconstruction
// (Error.Is) are inverses for the sentinel-backed classes, so
// errors.Is works identically on both sides of the wire.
type Code uint8

const (
	// CodeOK marks a committed transaction's response.
	CodeOK Code = 0
	// CodeCanceled: the per-request deadline expired or the request
	// context was canceled — before an age was assigned (withdrawn,
	// never ran) or while waiting for commit (the transaction still
	// commits; only the wait was abandoned). errors.Is(err,
	// stm.ErrCanceled) on the reconstructed error.
	CodeCanceled Code = 1
	// CodeStopped: the pipeline halted on another transaction's fault
	// before this age could commit. errors.Is(err, stm.ErrStopped).
	CodeStopped Code = 2
	// CodeFault: this transaction IS the fault — its body escaped the
	// speculative sandbox (nil deref outside retry, explicit panic,
	// undeclared access on a sharded router).
	CodeFault Code = 3
	// CodeClosed: the pipeline is shut down. errors.Is(err,
	// stm.ErrClosed).
	CodeClosed Code = 4
	// CodeDurability: the WAL failed this transaction's group commit
	// (write/fsync error under WaitDurable) — committed in memory,
	// not durable.
	CodeDurability Code = 5
	// CodeDegraded: the WAL exhausted its retry budget under
	// OnFail: Degrade and the engine is running non-durably.
	// errors.Is(err, wal.ErrDegraded).
	CodeDegraded Code = 6
	// CodeFenceTimeout: a cross-shard rendezvous exceeded the
	// configured FenceTimeout (a peer shard stalled).
	CodeFenceTimeout Code = 7
	// CodeBadRequest: the frame or payload was malformed (decode
	// failure, oversized frame); the request was never submitted.
	CodeBadRequest Code = 8
	// CodeInternal: any error outside the taxonomy.
	CodeInternal Code = 9
	// CodeNotLeader: this process is a replication follower and does
	// not accept writes; the request was never submitted. The response
	// msg carries the leader's address when the follower knows it, so
	// a client can redial (see WithNotLeaderRedial). errors.Is(err,
	// ErrNotLeader).
	CodeNotLeader Code = 10
)

func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeCanceled:
		return "canceled"
	case CodeStopped:
		return "stopped"
	case CodeFault:
		return "fault"
	case CodeClosed:
		return "closed"
	case CodeDurability:
		return "durability"
	case CodeDegraded:
		return "degraded"
	case CodeFenceTimeout:
		return "fence-timeout"
	case CodeBadRequest:
		return "bad-request"
	case CodeInternal:
		return "internal"
	case CodeNotLeader:
		return "not-leader"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// ErrNotLeader is the sentinel a NotLeader response matches through
// errors.Is, on either side of the wire.
var ErrNotLeader = errors.New("serve: not leader")

// NotLeaderError is the server-side refusal a follower's write gate
// returns: the process is replicating, not leading. Leader, when
// non-empty, is the address writes should go to; it travels as the
// response frame's msg so the far side can redial.
type NotLeaderError struct {
	Leader string
}

func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "serve: not leader"
	}
	return "serve: not leader (leader at " + e.Leader + ")"
}

// Is matches the ErrNotLeader sentinel.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// LeaderHint extracts the leader address carried by a NotLeader error
// — a server-side *NotLeaderError or a client-side reconstruction —
// with ok false for other errors or when no address is known.
func LeaderHint(err error) (leader string, ok bool) {
	var nl *NotLeaderError
	if errors.As(err, &nl) {
		return nl.Leader, nl.Leader != ""
	}
	var we *Error
	if errors.As(err, &we) && we.Code == CodeNotLeader {
		return we.Msg, we.Msg != ""
	}
	return "", false
}

// CodeOf classifies an error into its wire code. The order of the
// checks is load-bearing: a fence timeout surfaces wrapped in the
// fault vocabulary (*stm.Fault, or *stm.Stopped around it) and a
// degraded WAL inside *stm.DurabilityError, so the more specific
// class is tested before the wrapper it travels in. CodeOf is
// idempotent across the wire: applied to an *Error it returns the
// Error's own code.
func CodeOf(err error) Code {
	if err == nil {
		// Every committed response takes this exit; it is taken before
		// the errors.As targets below are declared, because those
		// escape to the heap.
		return CodeOK
	}
	var (
		wireErr *Error
		ftErr   *shard.FenceTimeoutError
		durErr  *stm.DurabilityError
		fault   *stm.Fault
	)
	switch {
	case errors.As(err, &wireErr):
		return wireErr.Code
	case errors.Is(err, ErrNotLeader):
		return CodeNotLeader
	case errors.Is(err, stm.ErrCanceled):
		return CodeCanceled
	case errors.As(err, &ftErr):
		return CodeFenceTimeout
	case errors.Is(err, wal.ErrDegraded):
		return CodeDegraded
	case errors.As(err, &durErr):
		return CodeDurability
	case errors.Is(err, stm.ErrClosed):
		return CodeClosed
	case errors.Is(err, stm.ErrStopped):
		return CodeStopped
	case errors.As(err, &fault):
		return CodeFault
	default:
		return CodeInternal
	}
}

// Error is the client-side reconstruction of a non-OK response: the
// wire code plus the server's message. It matches the engine's
// sentinels through errors.Is, so client code written against the
// in-process API (errors.Is(err, stm.ErrCanceled), errors.Is(err,
// wal.ErrDegraded), ...) ports across the process boundary unchanged.
type Error struct {
	Code Code
	Msg  string
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return "serve: " + e.Code.String()
	}
	return "serve: " + e.Code.String() + ": " + e.Msg
}

// Is maps wire codes back onto the engine sentinels.
func (e *Error) Is(target error) bool {
	switch target {
	case stm.ErrCanceled:
		return e.Code == CodeCanceled
	case stm.ErrStopped:
		return e.Code == CodeStopped
	case stm.ErrClosed:
		return e.Code == CodeClosed
	case wal.ErrDegraded:
		return e.Code == CodeDegraded
	case ErrNotLeader:
		return e.Code == CodeNotLeader
	}
	return false
}

// wireMsg chooses the msg a response frame carries for err: for
// NotLeader it is the leader hint itself (machine-consumable; the
// client rebuilds the sentence), otherwise the error text.
func wireMsg(err error) string {
	if err == nil {
		return ""
	}
	var nl *NotLeaderError
	if errors.As(err, &nl) {
		return nl.Leader
	}
	return err.Error()
}

// DecodeError reconstructs the typed error carried by a response
// frame: nil for CodeOK, else an *Error.
func DecodeError(code Code, msg string) error {
	if code == CodeOK {
		return nil
	}
	return &Error{Code: code, Msg: msg}
}
