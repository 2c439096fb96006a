// Package meta holds the substrate shared by every transactional-memory
// engine in this repository: transactional variables, the striped lock
// table, transaction status and abort-cause vocabulary, the engine and
// transaction-attempt interfaces consumed by the ordered executor,
// visible-reader slot arrays, dependency lists for cascading aborts,
// commit-order (turn) control, and abort statistics.
//
// The package is intentionally engine-agnostic: OWB and OUL
// (internal/core) and every baseline (internal/tl2, internal/norec,
// internal/undolog, internal/stmlite) build their protocol-specific
// metadata on top of these primitives.
package meta

import "runtime"

// Mode classifies how the executor must drive an engine.
type Mode uint8

const (
	// ModeSequential runs bodies one by one on a single goroutine with
	// no instrumentation beyond atomic loads/stores (the paper's
	// non-transactional "sequential" green line).
	ModeSequential Mode = iota
	// ModeCooperative is the paper's cooperative ordered model
	// (OWB, OUL): workers speculatively execute and expose
	// transactions out of order; a flat-combining validator role
	// commits them in age order and re-executes reachable failures.
	ModeCooperative
	// ModeBlocked is the classical blocking approach used for the
	// ordered baselines (Ordered TL2/NOrec/UndoLog): a transaction may
	// enter its commit phase only once every lower-age transaction has
	// committed.
	ModeBlocked
	// ModeUnordered runs a conventional (non-ACO) STM; ages are
	// assigned but ignored by conflict resolution and commit.
	ModeUnordered
	// ModeLite is STMLite's model: workers submit signature summaries
	// to a Transaction Commit Manager which grants in-order
	// (possibly concurrent) write-backs.
	ModeLite
)

// String returns the executor-mode name.
func (m Mode) String() string {
	switch m {
	case ModeSequential:
		return "sequential"
	case ModeCooperative:
		return "cooperative"
	case ModeBlocked:
		return "blocked"
	case ModeUnordered:
		return "unordered"
	case ModeLite:
		return "lite"
	default:
		return "unknown"
	}
}

// Txn is one transaction *attempt*. The executor requests a Txn from
// the engine (or its per-worker TxnPool) for every attempt, including
// validator re-executions. Engines implementing PoolEngine recycle
// finalized descriptors across attempts; a recycled descriptor starts
// a new *life* (StatusWord.Renew), and every shared reference to it —
// lock words, reader slots, dependency registrations — carries the
// generation of the life that published it (meta.Ref), so a stale
// reference is exactly as inert as a pointer to a never-reused
// finalized descriptor used to be. Engines that do not pool still get
// one fresh descriptor per attempt with the GC standing in for
// epoch-based reclamation.
//
// Read and Write may signal an abort by panicking via PanicAbort; the
// executor's sandbox recovers, calls AbandonAttempt, and retries with a
// new descriptor.
type Txn interface {
	// Read returns the current value of v visible to this transaction.
	Read(v *Var) uint64
	// Write stores x into v from this transaction's perspective
	// (buffered or write-through depending on the engine).
	Write(v *Var, x uint64)
	// Age returns the transaction's predefined commit order index.
	Age() uint64

	// TryCommit moves the attempt to its commit-pending / exposed state
	// (cooperative engines), or performs the full ordered/unordered
	// commit (blocked, unordered and lite engines). It returns false if
	// the attempt aborted instead; the attempt must then be abandoned
	// and retried with a fresh descriptor.
	TryCommit() bool
	// Commit finalizes a commit-pending attempt once it is reachable
	// (every lower age committed). Only meaningful for cooperative
	// engines; others return true immediately. A false return means the
	// attempt was aborted while commit-pending and must be re-executed.
	Commit() bool
	// Cleanup releases metadata after the attempt committed and became
	// reachable (the cleaner role of Algorithm 5). It must be called at
	// most once and only after Commit returned true.
	Cleanup()
	// AbandonAttempt rolls back whatever the attempt left behind
	// (locks, write-through values, reader registrations) after an
	// abort. It is idempotent.
	AbandonAttempt()
	// Doomed reports whether some other transaction has marked this
	// attempt for abort.
	Doomed() bool
}

// Engine constructs transaction attempts for one algorithm
// instantiation (one run). Engines are not reusable across runs.
type Engine interface {
	// Name returns the human-readable algorithm name.
	Name() string
	// Mode tells the executor how to drive this engine.
	Mode() Mode
	// NewTxn returns a fresh attempt descriptor for the given age.
	NewTxn(age uint64) Txn
	// Stats returns the engine's shared counters.
	Stats() *Stats
}

// Service is implemented by engines that need a background goroutine
// for the duration of a run (STMLite's Transaction Commit Manager).
type Service interface {
	Start()
	Stop()
}

// Stabilizer is implemented by attempts whose engine can leave a gap
// between a commit entering the order (the frontier advancing) and its
// effects being fully applied to memory: STMLite's commit manager
// grants write-back permission in age order, but the write-back itself
// runs on the granted worker afterwards. WaitStable blocks until every
// granted commit has landed in memory. Frontier-exact readers (the
// shard fence protocol) call it after reaching the commit frontier and
// before reading; engines that publish writes before advancing the
// order never implement it.
type Stabilizer interface {
	WaitStable()
}

// Revalidator is implemented by attempts that can check their read-set
// consistency on demand. The executor's sandbox uses it to distinguish
// a genuine application fault from a fault induced by an inconsistent
// speculative snapshot (engines with invisible reads and no per-read
// validation — TL2, NOrec, invisible-reader undo log — can observe
// stale state without being doomed).
type Revalidator interface {
	ReadSetValid() bool
}

// abortSignal is the panic payload used to unwind a transaction body
// when its attempt must abort.
type abortSignal struct{ cause Cause }

// PanicAbort unwinds the current transaction body with the given abort
// cause. It must only be called beneath the executor's sandbox.
func PanicAbort(c Cause) {
	panic(abortSignal{cause: c})
}

// AbortSignal returns the panic payload PanicAbort would throw, for
// coordinators that must hand an abort to another goroutine to
// re-raise under its own sandbox (the cross-shard rendezvous killing a
// round's surviving participants).
func AbortSignal(c Cause) any { return abortSignal{cause: c} }

// AbortCause reports whether a recovered panic value is an abort signal
// and, if so, its cause.
func AbortCause(r any) (Cause, bool) {
	s, ok := r.(abortSignal)
	if !ok {
		return CauseNone, false
	}
	return s.cause, true
}

// spinYieldThreshold is the number of tight-loop iterations before a
// spinner starts yielding to the scheduler. A spinner usually waits on
// a goroutine that needs a processor to make the progress it waits
// for: with fewer processors than runnable goroutines (GOMAXPROCS=1
// above all) only a yield lets that goroutine run, so the threshold is
// tiny.
const spinYieldThreshold = 2

// spinWaitPolls is how many times Spin polls before it gives up: the
// spin half of every wait that can also park (Order's waits, the
// cross-shard rendezvous). Each poll yields between checks, so the
// budget lasts a few scheduler round trips, about as long as one
// commit on a busy pipeline: long enough to cover the common wait for
// the next frontier step, short enough that a wait for a stalled age
// soon parks instead of polling.
const spinWaitPolls = 32

// Pause is the backoff primitive used inside every spin loop: cheap for
// the first iterations, then it yields the processor so the goroutine
// being waited on can run even with GOMAXPROCS=1.
func Pause(i int) {
	if i > spinYieldThreshold {
		runtime.Gosched()
	}
}

// Spin polls ready up to spinWaitPolls times, yielding the processor
// between polls, and reports whether ready held. A wait that can park
// calls it first: a park and the wake-up that ends it cost a round
// trip through the scheduler that outlasts the short waits of a busy
// pipeline, and the yields keep the goroutine being waited on running
// even on one processor. On false the caller parks.
func Spin(ready func() bool) bool {
	for range spinWaitPolls {
		if ready() {
			return true
		}
		runtime.Gosched()
	}
	return ready()
}
