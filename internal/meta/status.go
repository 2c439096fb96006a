package meta

import "sync/atomic"

// Status is the lifecycle state of a transaction attempt. The values
// mirror the paper's pseudocode (Algorithms 1–4):
//
//	Active    — live, or (OWB) exposed: executing / published but abortable
//	Pending   — commit-pending (OUL: passed TryCommit, awaiting its turn)
//	Transient — descriptor locked: a short critical section during which
//	            the attempt is being exposed, committed or aborted;
//	            other threads spin-wait on Transient
//	Committed — final: effects are permanent (pseudocode INACTIVE)
//	Aborted   — final: effects rolled back; the transaction will be
//	            re-executed with the same age using a fresh descriptor
type Status uint32

const (
	StatusActive Status = iota
	StatusPending
	StatusTransient
	StatusCommitted
	StatusAborted
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPending:
		return "pending"
	case StatusTransient:
		return "transient"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "invalid"
	}
}

// Final reports whether the status is terminal for the attempt.
func (s Status) Final() bool { return s == StatusCommitted || s == StatusAborted }

// Life is one atomically-read snapshot of a StatusWord: the attempt's
// current status packed with the descriptor's generation. Descriptor
// recycling (per-worker freelists) reuses attempt descriptors across
// lives; the generation is what distinguishes a descriptor's current
// life from a stale reference created during a previous one. Two Life
// values with different generations belong to different attempts even
// though they came from the same descriptor.
type Life uint64

const lifeStatusBits = 8 // status occupies the low byte; gen the rest

// Status returns the snapshot's lifecycle state.
func (l Life) Status() Status { return Status(l & (1<<lifeStatusBits - 1)) }

// Gen returns the snapshot's generation (which life of the descriptor
// this is).
func (l Life) Gen() uint64 { return uint64(l) >> lifeStatusBits }

func packLife(gen uint64, s Status) uint64 {
	return gen<<lifeStatusBits | uint64(s)
}

// StatusWord is an atomically updated (generation, Status) pair. The
// generation advances exactly once per descriptor life (Renew); every
// status transition within a life preserves it. Loading the packed
// Life lets observers holding a generation-stamped reference (meta.Ref)
// decide whether the descriptor they resolved is still the attempt the
// reference was created for.
type StatusWord struct{ w atomic.Uint64 }

// Load returns the current status.
func (s *StatusWord) Load() Status { return Life(s.w.Load()).Status() }

// LoadLife returns the packed (generation, status) snapshot.
func (s *StatusWord) LoadLife() Life { return Life(s.w.Load()) }

// Gen returns the current generation.
func (s *StatusWord) Gen() uint64 { return Life(s.w.Load()).Gen() }

// Store sets the status, preserving the generation. Only the goroutine
// owning the descriptor's current critical section may Store (all
// engines follow this discipline: unconditional status stores happen
// with the descriptor claimed); concurrent readers are fine.
func (s *StatusWord) Store(v Status) {
	s.w.Store(packLife(Life(s.w.Load()).Gen(), v))
}

// CAS atomically replaces old with new within the current life and
// reports success. A concurrent generation change makes it fail, which
// is exactly right: the transition was aimed at a life that ended.
func (s *StatusWord) CAS(old, new Status) bool {
	p := s.w.Load()
	if Life(p).Status() != old {
		return false
	}
	return s.w.CompareAndSwap(p, packLife(Life(p).Gen(), new))
}

// CASLife replaces the exact packed snapshot old with (old.Gen, new).
// Observers that must not cross a life boundary between two status
// reads (OWB's dependency double-check) use it instead of CAS.
func (s *StatusWord) CASLife(old Life, new Status) bool {
	return s.w.CompareAndSwap(uint64(old), packLife(old.Gen(), new))
}

// Renew starts the descriptor's next life: generation+1, status Active.
// It returns the new generation. Only a pool that has established the
// descriptor is unreachable for claims (final status) may call
// it; stale references resolved concurrently observe the generation
// mismatch and treat the reference as dead.
func (s *StatusWord) Renew() uint64 {
	gen := Life(s.w.Load()).Gen() + 1
	s.w.Store(packLife(gen, StatusActive))
	return gen
}

// Cause identifies why a transaction attempt aborted. The Figure 5
// categories of the paper map onto these as follows:
//
//	"Read After Write"  = CauseRAW + CauseKilledReader
//	"Write After Write" = CauseWAW
//	"Cascade"           = CauseCascade
//	"Locked Write"      = CauseLockedWrite
//	"Validation Fails"  = CauseValidation
//
// CauseOrder (kills needed to let the reachable transaction win) and
// CauseBusy (bounded-spin fallbacks) are implementation details counted
// separately so the five paper categories stay faithful.
type Cause uint32

const (
	CauseNone Cause = iota
	// CauseRAW: a speculative writer was aborted by a lower-age reader,
	// or a reader had to abort because its writer was no longer active
	// (the W2→R1 / read-after-speculative-write conflicts).
	CauseRAW
	// CauseWAW: write-after-write; a higher-age writer aborted because a
	// lower-age transaction holds the write lock (W1→W2).
	CauseWAW
	// CauseLockedWrite: a commit-time lock acquisition found the object
	// locked by a concurrent committer (OWB expose, TL2 commit).
	CauseLockedWrite
	// CauseCascade: aborted because a transaction whose exposed or
	// forwarded data this transaction consumed was itself aborted.
	CauseCascade
	// CauseValidation: read-set (version or value) validation failed.
	CauseValidation
	// CauseKilledReader: a speculative reader was aborted by a lower-age
	// writer (R2→W1).
	CauseKilledReader
	// CauseOrder: killed so that the reachable (lowest uncommitted age)
	// transaction can make progress, or an ACO-ordering kill.
	CauseOrder
	// CauseBusy: self-abort after exhausting a bounded spin (lock or
	// reader-slot acquisition, invisible-reader backoff).
	CauseBusy
	// NumCauses is the number of abort causes (array sizing).
	NumCauses
)

// String returns the cause name.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseRAW:
		return "read-after-write"
	case CauseWAW:
		return "write-after-write"
	case CauseLockedWrite:
		return "locked-write"
	case CauseCascade:
		return "cascade"
	case CauseValidation:
		return "validation"
	case CauseKilledReader:
		return "killed-reader"
	case CauseOrder:
		return "order"
	case CauseBusy:
		return "busy"
	default:
		return "invalid"
	}
}
