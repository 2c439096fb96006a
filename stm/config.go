package stm

import (
	"fmt"
	"time"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/stm/obs"
)

// Config parameterizes an Executor.
type Config struct {
	// Algorithm selects the engine (default Sequential).
	Algorithm Algorithm
	// Workers is the number of worker goroutines (default 1). The
	// paper's thread counts map onto this; for STMLite the commit
	// manager runs on an extra goroutine but is counted as one of the
	// workers to match the paper's accounting ("the number of threads
	// in STMLite also includes its commit manager"), so STMLite runs
	// Workers-1 transaction workers.
	Workers int
	// TableBits sizes the striped lock table at 1<<TableBits records
	// (default 16). Smaller tables increase address aliasing and
	// false conflicts, as in the paper's LSB-mapped locks.
	TableBits uint
	// MaxReaders bounds visible-reader slots per lock record
	// (default 40, the paper's setting).
	MaxReaders int
	// Window is the ceiling of the run-ahead window: how far ahead of
	// the last committed age workers may start new transactions
	// (Algorithm 5's MAX; default 8*Workers, minimum 2*Workers). The
	// window in force starts here, halves (down to 2*Workers) each
	// time an exposed transaction fails at the commit frontier, and
	// regrows by one per clean commit. Only cooperative engines use it.
	Window int
	// SpinBudget bounds optimistic spinning before self-aborting on a
	// busy resource (default 64).
	SpinBudget int
	// SigBits sizes STMLite signatures in bits (default 64, the
	// paper's choice).
	SigBits uint
	// RetryUnknownPanics makes the sandbox retry attempts that panic
	// for reasons it cannot attribute to staleness, instead of
	// reporting a Fault (default false).
	RetryUnknownPanics bool
	// FreshDescriptors disables descriptor recycling: every attempt
	// gets a brand-new descriptor even when the engine supports
	// generation-stamped freelists (default false — recycle). An
	// escape hatch for debugging and for A/B-ing the allocation
	// behavior; committed results are identical either way.
	FreshDescriptors bool

	// The remaining fields only apply to Pipeline (the streaming
	// front-end); Executor.Run ignores them.

	// Capacity bounds how many submissions may be in flight (submitted
	// but not yet committed) before Submit blocks — the pipeline's
	// backpressure depth, measured against the commit frontier.
	// Default 4*Window, floored at Window+Workers+8 so backpressure
	// never strangles the run-ahead window.
	Capacity int
	// FirstAge is the age assigned to the first submission (default
	// 0). A replica resuming from a snapshot at a known consensus slot
	// submits its next command with that slot as FirstAge instead of
	// renumbering from zero.
	FirstAge uint64

	// WAL attaches a write-ahead log (stm/wal.Writer, or any
	// DurableLog): as the commit frontier advances, the pipeline
	// appends each committed age's encoded input payload to the log in
	// age order. A WAL-backed pipeline only accepts encoded
	// submissions (SubmitEncoded, Request.Encoded); see Codec. When
	// recovering, set FirstAge to the recovery's First() and replay
	// the surviving records through SubmitEncoded before submitting
	// new work — re-appends of recovered ages are no-ops.
	WAL DurableLog
	// Codec decodes encoded submissions into bodies, both live and at
	// recovery. Required when WAL is set.
	Codec Codec
	// WaitDurable defers ticket resolution until the transaction's age
	// is durable (on stable storage), not merely committed in memory.
	// With a sync policy of "none" that only happens at an explicit
	// log Sync or at Close. Requires WAL.
	WaitDurable bool
	// CheckpointEvery, when > 0, checkpoints the pipeline every that
	// many commits: workers stop claiming new ages, execution drains
	// up to that frontier, Snapshotter.Snapshot serializes the Var
	// space, and the
	// WAL's CheckpointSink commits it and truncates redundant history —
	// bounding recovery time by the checkpoint interval. Requires WAL
	// (implementing CheckpointSink) and Snapshotter.
	CheckpointEvery uint64
	// Snapshotter serializes the application's Var space for
	// checkpoints and restores it at recovery. Required when
	// CheckpointEvery is set.
	Snapshotter Snapshotter
	// OnCommit, when non-nil, is called for every age that reaches its
	// final commit, in commit-report order. That is age order only for
	// the cooperative engines. Every other engine's workers report
	// their own commits, after the order has let the next age commit
	// (Ordered TL2, NOrec and UndoLog included), so neighbouring ages
	// may be reported out of order or at once: it must be safe for
	// concurrent use. It runs on the commit path, on a durable
	// pipeline with the stream's lock held: it must be fast and must not
	// call back into the pipeline. The sharded router uses it to track
	// the global commit frontier across shards.
	OnCommit func(age uint64)
	// Obs, when non-nil, attaches the observability registry: the
	// pipeline registers its lifecycle metric families (commits, abort
	// breakdown, frontier age/lag, backpressure waits, commit/resolve
	// latency histograms, checkpoint duration) and records into them as
	// the stream runs. Attach a trace ring to the registry (SetTrace)
	// before NewPipeline to also capture sampled per-transaction
	// lifecycle events. nil (the default) means zero overhead: no
	// instrument is ever touched on any path. One pipeline per
	// registry; give each pipeline of a process its own registry or a
	// label-scoped view (Registry.With), as the sharded router does.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.TableBits == 0 {
		c.TableBits = meta.DefaultTableBits
	}
	if c.MaxReaders <= 0 {
		c.MaxReaders = meta.DefaultMaxReaders
	}
	if c.Window <= 0 {
		c.Window = 8 * c.Workers
	}
	if c.Window < 2*c.Workers {
		c.Window = 2 * c.Workers
	}
	if c.SpinBudget <= 0 {
		c.SpinBudget = meta.DefaultSpinBudget
	}
	if c.SigBits == 0 {
		c.SigBits = meta.DefaultSigBits
	}
	if c.Capacity <= 0 {
		c.Capacity = 4 * c.Window
	}
	if min := c.Window + c.Workers + 8; c.Capacity < min {
		c.Capacity = min
	}
	return c
}

// Result reports one run.
type Result struct {
	// Algorithm that executed the run.
	Algorithm Algorithm
	// Workers actually used.
	Workers int
	// N is the number of transactions that actually committed. On a
	// clean run it equals Requested; on a faulted (stopped) run it is
	// the partial count of commits that landed before the stop, so a
	// caller that ignores Run's error can still detect partial
	// completion by comparing N against Requested.
	N int
	// Requested is the transaction count the caller asked Run for.
	Requested int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Stats are the engine counters (commits, aborts by cause, ...).
	Stats meta.StatsView
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.N) / r.Elapsed.Seconds()
}

// Fault is returned by Run when a transaction body panicked for a
// reason the sandbox could not attribute to speculative staleness; it
// corresponds to a fault the sequential execution would also hit.
type Fault struct {
	// Age of the faulting transaction.
	Age uint64
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("stm: transaction %d faulted: %v", f.Age, f.Value)
}

// Unwrap exposes the recovered panic value when it is itself an
// error, so errors.Is/As reach through a Fault to typed causes (a
// body that panicked with a sentinel error, a shard access
// violation).
func (f *Fault) Unwrap() error {
	if err, ok := f.Value.(error); ok {
		return err
	}
	return nil
}
