package stm

import (
	"errors"
	"fmt"
)

// Codec turns durable transaction payloads into replayable bodies. It
// is the bridge between the pipeline and its write-ahead log: the
// predefined commit order plus deterministic bodies mean the log never
// stores memory — it stores the *inputs*, and replaying the encoded
// inputs in age order through any order-enforcing engine reproduces
// the state bit for bit.
//
// Encode serializes an application-level payload (a command, a
// transfer request, a consensus entry) to its wire form. Decode
// reconstructs the transaction body from that wire form. A durable
// pipeline runs the *decoded* body even for live submissions, so the
// code path that executed originally and the one recovery replays are
// the same by construction — an encode bug cannot desynchronize them
// silently.
//
// Decode must be deterministic: the same bytes must always yield a
// body with the same effect at the same age. Bodies themselves must
// already be deterministic functions of (age, memory) — the executor
// re-runs them after aborts — so this adds no new obligation, only
// extends it across restarts.
type Codec interface {
	// Encode serializes payload into its durable wire form.
	Encode(payload any) ([]byte, error)
	// Decode reconstructs the transaction body from the wire form.
	Decode(data []byte) (Body, error)
}

// CodecFunc adapts a pair of functions to the Codec interface.
type CodecFunc struct {
	EncodeFunc func(payload any) ([]byte, error)
	DecodeFunc func(data []byte) (Body, error)
}

// Encode implements Codec.
func (c CodecFunc) Encode(payload any) ([]byte, error) { return c.EncodeFunc(payload) }

// Decode implements Codec.
func (c CodecFunc) Decode(data []byte) (Body, error) { return c.DecodeFunc(data) }

// DurableLog is the pipeline's write-ahead sink, implemented by
// wal.Writer. The pipeline appends the encoded payload of every
// committed age, in age order, as the commit frontier advances;
// the log decides when those appends reach stable storage (group
// commit) and reports progress through the registered observer.
type DurableLog interface {
	// Append hands the log the payload committed at age. Ages arrive
	// contiguously; appending an age the log already holds must be a
	// no-op success (recovery replay idempotence). Append is called on
	// the commit path and must never force records to stable storage
	// (no fsync); buffering in process or writing through to the OS
	// page cache is fine.
	Append(age uint64, payload []byte) error
	// Notify registers the durability observer: fn is called, without
	// log-internal locks held, after each sync with the new frontier
	// (every age below next is durable) and with a non-nil error if
	// the log has failed.
	Notify(fn func(next uint64, err error))
	// Sync forces everything appended so far onto stable storage
	// before returning (and fires the observer).
	Sync() error
	// Durable returns the current durability frontier.
	Durable() uint64
}

// Snapshotter serializes the application's Var space for a
// checkpoint, and restores it at recovery. The pipeline calls
// Snapshot only at a quiescent frontier: every age below the
// checkpoint age has fully committed, no speculative execution at or
// above it has started, so plain Var.Load reads the exact sequential
// state — SnapshotVars/RestoreVars cover the common flat-Var-array
// case. Snapshot must not call back into the pipeline.
//
// The snapshot bytes travel next to the log (wal checkpoint files),
// so like Codec payloads they must be self-contained: Restore on a
// fresh process must rebuild the same state Snapshot saw.
type Snapshotter interface {
	// Snapshot serializes the current Var space. Called at a quiescent
	// frontier; the returned bytes are owned by the caller.
	Snapshot() ([]byte, error)
	// Restore rebuilds the Var space from a snapshot taken by the same
	// application at an earlier frontier.
	Restore(data []byte) error
}

// SnapshotterFuncs adapts a pair of functions to Snapshotter.
type SnapshotterFuncs struct {
	SnapshotFunc func() ([]byte, error)
	RestoreFunc  func(data []byte) error
}

// Snapshot implements Snapshotter.
func (s SnapshotterFuncs) Snapshot() ([]byte, error) { return s.SnapshotFunc() }

// Restore implements Snapshotter.
func (s SnapshotterFuncs) Restore(data []byte) error { return s.RestoreFunc(data) }

// SnapshotVars serializes a flat Var array as little-endian u64
// words — the snapshot format for applications whose whole state is
// one Var slice (benchmarks, the examples, TVar-free tables).
func SnapshotVars(vars []Var) []byte {
	buf := make([]byte, 8*len(vars))
	for i := range vars {
		x := vars[i].Load()
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(x >> (8 * b))
		}
	}
	return buf
}

// RestoreVars is SnapshotVars' inverse. It errors if the snapshot's
// word count does not match the Var array (a schema change between
// checkpoint and restart).
func RestoreVars(vars []Var, data []byte) error {
	if len(data) != 8*len(vars) {
		return fmt.Errorf("stm: snapshot holds %d words, state has %d vars", len(data)/8, len(vars))
	}
	for i := range vars {
		var x uint64
		for b := 0; b < 8; b++ {
			x |= uint64(data[8*i+b]) << (8 * b)
		}
		vars[i].Store(x)
	}
	return nil
}

// CheckpointSink is the optional durable-log extension the pipeline's
// automatic checkpointing needs, implemented by wal.Writer. A
// DurableLog that does not implement it simply never checkpoints
// (Config.CheckpointEvery requires it).
type CheckpointSink interface {
	// Checkpoint durably records state as the application snapshot at
	// frontier age and truncates log history the checkpoint makes
	// redundant.
	Checkpoint(age uint64, state []byte) error
}

// burstLog is the optional durable-log extension that lets the log
// size a sync group to the commit burst, implemented by wal.Writer:
// AppendMore is Append plus whether the pipeline already knows of
// another age on its way to the log (MSG_MORE, for group commit). A
// DurableLog that does not implement it gets plain Append.
type burstLog interface {
	AppendMore(age uint64, payload []byte, more bool) error
}

// ErrPayloadRequired is returned by Submit and SubmitBatch on a
// pipeline configured with a WAL: opaque bodies cannot be replayed
// after a crash, so every durable submission must come in through
// SubmitPayload/SubmitEncoded, which capture the input the log needs.
var ErrPayloadRequired = errors.New("stm: durable pipeline requires SubmitPayload (a body alone cannot be re-created at recovery)")

// DurabilityError wraps a write-ahead log failure. Once the log
// fails, the in-memory pipeline keeps its ordering guarantees but can
// no longer extend the durable prefix; WaitDurable tickets and Close
// report the failure through this type.
type DurabilityError struct {
	Err error
}

// Error implements error.
func (e *DurabilityError) Error() string {
	return fmt.Sprintf("stm: write-ahead log failed: %v", e.Err)
}

// Unwrap exposes the underlying log error.
func (e *DurabilityError) Unwrap() error { return e.Err }
