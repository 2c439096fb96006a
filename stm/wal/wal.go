// Package wal is the durability subsystem of the ordered-commit
// pipeline: a segmented append-only log of committed transaction
// inputs, a pipelined group-commit syncer, a checkpoint writer, and a
// crash-recovery driver.
//
// The predefined commit order makes durability almost free to specify.
// Because every execution commits transactions in exactly the
// predefined age order, and bodies are deterministic functions of
// (age, memory), the sequence of committed input payloads *is* the
// state: replaying any prefix of the log through any order-enforcing
// engine reproduces, bit for bit, the memory a sequential execution of
// that prefix would leave. The log therefore stores inputs — the
// encoded submission payloads handed to stm.Codec — never memory
// snapshots, the same property queue-oriented deterministic systems
// (QueCC, Calvin) and replicated state machines build on.
//
// # Log structure
//
// A log is a directory of segment files named by the age of their
// first record (`%016x.wal`). Records are CRC-framed:
//
//	u32 payload length | u32 CRC-32C | u64 age | payload
//
// Ages are contiguous across the whole log: segment N+1 starts at the
// age one past segment N's last record. The Writer appends records
// strictly in age order and rolls to a new segment once the current
// one exceeds Options.SegmentBytes.
//
// # Pipelined group commit
//
// Append only copies the record into the current segment's buffer; an
// fsync makes everything appended so far durable at once. Sync points
// are *pipelined*: admission (flushing the buffer and snapshotting the
// group's target frontier) is decoupled from the fsync itself, so the
// next sync group is admitted while the previous fsync is still on the
// wire — up to Options.MaxInFlightSyncs groups overlap. Completions
// are processed strictly in admission order, so the durability
// frontier only ever moves forward and observers see sync points in
// age order no matter how the device reorders the fsyncs themselves.
//
// The sync policy decides when groups are admitted: after every N
// appends (Options.SyncEveryN), at least every interval while dirty
// (Options.SyncInterval), adaptively (Options.Adaptive), or only on
// explicit Sync/Close (none of the above — policy "none", the right
// choice when a layer above already decides durability points). Count
// and adaptive policies also admit pending records as soon as a sync
// slot frees (admit-on-drain), so a partial group never waits for
// traffic that may not come, and an idle-flush timer bounds the
// stalled-tail latency either way. Durability is tracked as a
// frontier: every age below Writer.Durable is on stable storage.
//
// The adaptive policy sizes a group to what the device and the
// producer are doing. While a sync is in flight the group grows —
// until it reaches Options.AdaptiveBytes or the slot frees. On an idle
// device a record is admitted at once, unless the producer has said
// more is coming (Writer.AppendMore, which the pipeline calls with
// "another submitted transaction has yet to commit"): then the group
// stays open for the rest of the commit burst and is admitted by the
// append that says no more, by the byte target, or after one fsync
// time — the writer's own running estimate, measured around the
// fdatasyncs it issues — whichever comes first. So a lone transaction
// still syncs immediately, a burst of acknowledgements' worth of
// commits costs one fsync instead of two, and a committed record never
// waits on a slow successor for longer than the sync it is waiting for
// would take anyway.
//
// # Checkpoints
//
// Writer.Checkpoint durably records an application state snapshot at a
// frontier age: the snapshot is written to a `%016x.ckpt` file, made
// durable, and then committed by an atomic rename of the CHECKPOINT
// manifest — a crash anywhere in between leaves the previous
// checkpoint in force. The two newest checkpoints are retained and
// segments wholly below the older one are truncated, bounding both
// disk usage and recovery time by the checkpoint interval while
// keeping a fallback if the newest checkpoint file is torn.
//
// # Torn tails and recovery
//
// A crash can leave a torn tail: a partially written final record, or
// garbage past the last fsync. Recover scans the segments in age
// order and stops at the first record that is short, fails its CRC,
// or carries an unexpected age; the log is truncated at that record's
// start and any later segments are deleted. Everything before the cut
// is a consistent prefix of the committed order — exactly the durable
// state. When a valid checkpoint exists, recovery loads its state and
// keeps only the record suffix at or above the checkpoint age (torn
// or unreadable checkpoints fall back to the previous checkpoint, or
// to full replay). Replay then feeds the surviving payloads, in age
// order, to a submit function (typically Pipeline.SubmitEncoded), and
// the writer reopened from the recovery accepts new appends where the
// prefix ends. Re-appends of already-recovered ages are ignored, so a
// replay that flows through a WAL-attached pipeline is idempotent.
package wal

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/orderedstm/ostm/stm/obs"
)

// ErrDegraded is the sentinel a degraded log reports (see
// FailPolicy): after an unrecoverable I/O failure under
// OnFail=Degrade the writer detaches at a clean record boundary and
// every durability-path call — Append, Sync, WaitDurable tickets via
// stm.DurabilityError — fails fast with an error matching ErrDegraded
// (errors.Is), while the engine above keeps committing volatile.
var ErrDegraded = errors.New("wal: log degraded, durability detached")

// RetryPolicy bounds how the writer retries transient I/O failures
// (segment writes, fdatasync, directory syncs, segment opens) before
// declaring the failure terminal and applying the FailPolicy.
type RetryPolicy struct {
	// Max is how many times a failed operation is retried (0, the
	// default, fails on the first error).
	Max int
	// Backoff is the delay before the first retry, doubling per
	// attempt (default 1ms when Max > 0).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 50ms).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max > 0 {
		if p.Backoff <= 0 {
			p.Backoff = time.Millisecond
		}
		if p.MaxBackoff <= 0 {
			p.MaxBackoff = 50 * time.Millisecond
		}
	}
	return p
}

// FailPolicy selects what a terminal (retries exhausted) I/O failure
// does to the log.
type FailPolicy int

const (
	// FailStop latches the error: every subsequent Append/Sync/Close
	// returns it, and the durability observer is notified so parked
	// WaitDurable tickets fail instead of hanging. The durable prefix
	// — everything below the last completed sync point — stands.
	FailStop FailPolicy = iota
	// Degrade detaches the log instead of killing it: buffered
	// records (always whole frames) are dropped at a clean record
	// boundary, the wal_degraded gauge flips, and the durability path
	// fails fast with ErrDegraded — while the engine above keeps
	// committing volatile. Use it when availability under a sick disk
	// matters more than durability of new commits.
	Degrade
)

func (p FailPolicy) String() string {
	switch p {
	case FailStop:
		return "failstop"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("FailPolicy(%d)", int(p))
	}
}

// Options parameterizes a Writer.
type Options struct {
	// SyncEveryN admits a sync group after every N appended records
	// (group commit: one fsync covers the whole batch). Zero disables
	// count-based syncing. Pending records are also admitted as soon
	// as a sync slot is free (admit-on-drain), an append that finds
	// the sync device idle admits immediately, and an idle delay of a
	// few ms bounds how long a stalled stream's tail can wait, so N is
	// the group-size target under load, not a latency floor.
	SyncEveryN int
	// SyncInterval bounds how long an appended record may stay
	// un-synced: a background syncer admits a group whenever the log
	// has been dirty for this long. Zero disables time-based syncing.
	SyncInterval time.Duration
	// Adaptive enables adaptive group sizing: while the sync device is
	// idle, pending records are admitted immediately (smallest groups,
	// lowest latency) — or, when the appender has hinted that more is
	// coming (AppendMore), once the burst ends or one fsync time has
	// passed; while syncs are in flight, the group grows until it
	// reaches AdaptiveBytes or a sync slot frees, whichever comes
	// first — the group size tracks the device's own latency and the
	// producer's own bursts. Mutually exclusive with SyncEveryN.
	Adaptive bool
	// AdaptiveBytes is the byte target an adaptive group grows toward
	// while syncs are in flight (default 256 KiB).
	AdaptiveBytes int
	// MaxInFlightSyncs bounds how many admitted sync groups may be on
	// the wire at once (default 2). 1 recovers the serial group-commit
	// behavior; 2+ overlaps the next group's admission with the
	// previous fsync.
	MaxInFlightSyncs int
	// SegmentBytes caps a segment file's size; the writer rolls to a
	// fresh segment before the record that would exceed it (default
	// 64 MiB). The finished segment is fsynced and closed at the next
	// sync point, off the append path.
	SegmentBytes int64
	// FS, when non-nil, routes every write-side filesystem operation
	// through the given implementation (fault injection, testing).
	// nil means OS: the real filesystem with no added cost.
	FS FS
	// Retry bounds retries of transient I/O failures before the
	// failure is terminal. The zero value never retries.
	Retry RetryPolicy
	// OnFail selects what a terminal I/O failure does to the log:
	// FailStop (default) latches the error, Degrade detaches
	// durability and keeps the engine above available. See
	// FailPolicy.
	OnFail FailPolicy
	// Obs, when non-nil, attaches the observability registry: the
	// writer registers its metric families (fsync latency and count,
	// group size, sync-pipeline depth, appended/durable age, bytes,
	// checkpoints) and records into them as it runs. nil (the default)
	// means zero overhead: no instrument is ever touched on any path.
	Obs *obs.Registry
}

// validate rejects nonsensical options at open time instead of
// silently treating them as unset.
func (o Options) validate() error {
	if o.SyncEveryN < 0 {
		return fmt.Errorf("wal: negative SyncEveryN %d", o.SyncEveryN)
	}
	if o.SyncInterval < 0 {
		return fmt.Errorf("wal: negative SyncInterval %v", o.SyncInterval)
	}
	if o.AdaptiveBytes < 0 {
		return fmt.Errorf("wal: negative AdaptiveBytes %d", o.AdaptiveBytes)
	}
	if o.MaxInFlightSyncs < 0 {
		return fmt.Errorf("wal: negative MaxInFlightSyncs %d", o.MaxInFlightSyncs)
	}
	if o.SegmentBytes < 0 {
		return fmt.Errorf("wal: negative SegmentBytes %d", o.SegmentBytes)
	}
	if o.Adaptive && o.SyncEveryN > 0 {
		return errors.New("wal: Adaptive and SyncEveryN are mutually exclusive group-size policies")
	}
	if o.Retry.Max < 0 {
		return fmt.Errorf("wal: negative Retry.Max %d", o.Retry.Max)
	}
	if o.Retry.Backoff < 0 {
		return fmt.Errorf("wal: negative Retry.Backoff %v", o.Retry.Backoff)
	}
	if o.Retry.MaxBackoff < 0 {
		return fmt.Errorf("wal: negative Retry.MaxBackoff %v", o.Retry.MaxBackoff)
	}
	if o.OnFail != FailStop && o.OnFail != Degrade {
		return fmt.Errorf("wal: unknown OnFail policy %d", int(o.OnFail))
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.MaxInFlightSyncs <= 0 {
		o.MaxInFlightSyncs = 2
	}
	if o.Adaptive && o.AdaptiveBytes <= 0 {
		o.AdaptiveBytes = 256 << 10
	}
	if o.FS == nil {
		o.FS = OS
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// policy returns the human-readable sync policy name ("none",
// "every=N", "interval=D", "adaptive(bytes=B,depth=D)", with
// interval-combined forms joined by "+").
func (o Options) policy() string {
	if o.Adaptive {
		s := "adaptive(bytes=" + strconv.Itoa(o.AdaptiveBytes) +
			",depth=" + strconv.Itoa(o.MaxInFlightSyncs) + ")"
		if o.SyncInterval > 0 {
			s += "+interval=" + o.SyncInterval.String()
		}
		return s
	}
	switch {
	case o.SyncEveryN > 0 && o.SyncInterval > 0:
		return "every=" + strconv.Itoa(o.SyncEveryN) + "+interval=" + o.SyncInterval.String()
	case o.SyncEveryN > 0:
		return "every=" + strconv.Itoa(o.SyncEveryN)
	case o.SyncInterval > 0:
		return "interval=" + o.SyncInterval.String()
	default:
		return "none"
	}
}
