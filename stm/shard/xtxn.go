package shard

import (
	"fmt"
	"sync"
	"time"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
)

// This file is the cross-shard transaction protocol: fence bodies,
// the rendezvous, and the cross-shard Tx view. The invariants it
// leans on:
//
//  1. A fence occupies one local age on every involved shard, and its
//     body first waits until that age IS the shard's commit frontier.
//     From then until the fence commits, nothing else can commit on
//     that shard, so the shard's committed state is frozen at exactly
//     the global-order prefix below this transaction.
//  2. All reads and writes go through each shard's own live
//     transaction attempt (never around the engine), so concurrent
//     higher-age speculation on that shard is handled by the shard
//     engine's ordered conflict resolution: the fence is reachable,
//     and a reachable transaction wins every conflict the paper's
//     engines can produce.
//  3. Bodies are deterministic functions of (age, memory), and the
//     memory a fence can read is frozen by (1); therefore every
//     execution round of the body computes identical reads and
//     writes, which is what makes restarting a round after a
//     participant's attempt aborts — and replaying recorded writes
//     into a replacement attempt after the round completed — exact.
//
// The router submits the fences of one transaction to every involved
// shard before accepting the next submission, and always in ascending
// shard order, so for any two cross-shard transactions their fences
// appear in the same relative order on every shard they share: the
// rendezvous graph is cycle-free and the protocol cannot deadlock.

// AccessError is the fault value raised when a transaction touches a
// variable on a partition its Access declaration did not reserve.
// Undeclared cross-partition access cannot be executed safely (the
// owning shard's engine was never brought to the rendezvous), so the
// sharded pipeline stops instead of silently breaking isolation.
type AccessError struct {
	// Age is the global age of the offending transaction.
	Age uint64
	// Shard is the partition owning the undeclared variable.
	Shard int
}

// Error implements error.
func (e *AccessError) Error() string {
	return fmt.Sprintf("shard: transaction %d touched an undeclared variable on shard %d", e.Age, e.Shard)
}

// FenceTimeoutError is the fault value raised when a cross-shard
// rendezvous waited longer than Config.FenceTimeout for its
// participants: some involved shard stalled (a wedged body, a dead
// disk) and never brought its fence to the frontier. The system stops
// at the transaction's global age — the stall is resolved with a
// single cut in the predefined order rather than parking the healthy
// shards' frontiers forever.
type FenceTimeoutError struct {
	// Age is the global age of the timed-out transaction.
	Age uint64
	// Shard is the partition whose participant gave up waiting.
	Shard int
	// Timeout is the configured bound that elapsed.
	Timeout time.Duration
}

// Error implements error.
func (e *FenceTimeoutError) Error() string {
	return fmt.Sprintf("shard: transaction %d timed out after %v waiting for its cross-shard rendezvous (observed on shard %d)", e.Age, e.Timeout, e.Shard)
}

// stopPanic carries a global stop into a shard pipeline's sandbox: it
// is not an engine abort signal, so the run-loop treats it as a
// genuine fault and halts the shard. Ticket errors are translated
// back to the global fault before users see them.
type stopPanic struct{ f *stm.Fault }

func (s stopPanic) String() string {
	return fmt.Sprintf("shard: stopped by global fault at age %d", s.f.Age)
}

// retrySignal unwinds the home's current round after a peer's attempt
// died mid-round; the round restarts once the peer re-arrives.
type retrySignal struct{}

// part is one involved shard's participation in a cross-shard
// transaction: the fence submitted there (its fence method) and that
// fence's ticket, the transaction handle its parked attempt
// contributed, and the death notice the home leaves when an operation
// on that handle aborted. Guarded by x.mu, except that the home reads
// the handles of a running round without it: no participant arrives or
// leaves while a round is active, other than through the home itself.
// The fence ticket synchronizes itself.
type part struct {
	x     *xtxn
	shard int
	ft    stm.Ticket // the fence's ticket on this shard
	txn   stm.Tx     // the arrived attempt's handle; nil while absent
	dead  bool
	cause any
}

// write is one entry of the round's write log.
type write struct {
	shard int
	v     *stm.Var
	val   uint64
}

// xtxn is one cross-shard transaction: its ticket, the state of its
// rendezvous, and the Tx view its body runs against, in one record.
type xtxn struct {
	Ticket         // the caller's; res points at out
	out    outcome // resolved by the fence tickets (or, WaitDurable, the router)
	body   stm.Body
	parts  []part // one per involved shard, ascending; parts[0] is the home
	view   crossTx

	mu          sync.Mutex
	cond        sync.Cond
	roundActive bool        // home is executing the body right now
	done        bool        // body completed; outcome is fixed
	failed      *stm.Fault  // global stop reached this transaction
	expired     bool        // Config.FenceTimeout elapsed since the first arrival
	timer       *time.Timer // armed at the first arrival when a timeout is set

	// wlog records the round's writes in the order the body issued
	// them. Only the home goroutine appends (successive rounds may run
	// on different goroutines, ordered by mu at round boundaries);
	// participants read it only after observing done under mu. A
	// participant whose commit step aborts after done replays its
	// shard's entries, in order, into a fresh attempt — the last write
	// to a variable lands last, and the frontier cannot move until that
	// fence commits, so the replay is exact.
	wlog []write
}

func newXtxn(sp *ShardedPipeline, g uint64, involved []int, body stm.Body) *xtxn {
	x := &xtxn{Ticket: Ticket{g: g, sp: sp}, body: body, parts: make([]part, len(involved))}
	x.res = &x.out
	x.cond.L = &x.mu
	x.view.x = x
	for i, s := range involved {
		x.parts[i] = part{x: x, shard: s}
	}
	return x
}

// fail releases every parked participant with a global stop and
// disarms the rendezvous clock, which would otherwise keep x alive
// until it fired into a dead transaction. Once the body has completed
// the outcome is fixed and the stop no longer takes the transaction
// back (its fences race the halt exactly like any commit racing a
// pipeline stop).
func (x *xtxn) fail(f *stm.Fault) {
	x.mu.Lock()
	if x.failed == nil && !x.done {
		x.failed = f
		if x.timer != nil {
			x.timer.Stop()
		}
		x.cond.Broadcast()
	}
	x.mu.Unlock()
}

// armTimeout starts the rendezvous clock at the first participant's
// arrival. One timer covers the whole transaction: expiry only ever
// matters to fences still parked, and a formed rendezvous (round
// running, or done) ignores it. Called with x.mu held; idempotent.
func (x *xtxn) armTimeout() {
	if x.sp.fenceTimeout <= 0 || x.timer != nil || x.done || x.failed != nil {
		return
	}
	x.timer = time.AfterFunc(x.sp.fenceTimeout, func() {
		x.mu.Lock()
		x.expired = true
		x.cond.Broadcast()
		x.mu.Unlock()
	})
}

// timeoutFault raises the fence-timeout fault for the participant on
// shard s: stop the world at this transaction's global age. Called
// WITHOUT x.mu held (sp.fail re-enters x.fail). The panic carries
// whichever global fault won the race to stop the system.
func (x *xtxn) timeoutFault(s int) {
	x.sp.fail(&stm.Fault{Age: x.g, Value: &FenceTimeoutError{
		Age:     x.g,
		Shard:   s,
		Timeout: x.sp.fenceTimeout,
	}})
	panic(stopPanic{x.sp.fault.Load()})
}

// await waits until ready holds, with x.mu held on entry and on
// return, by the commit path's wait rule: spin first (meta.Spin, each
// poll taking x.mu), then park on x.cond. Participants of a rendezvous
// usually arrive within a commit or two of each other, sooner than a
// park and its wake-up take.
func (x *xtxn) await(ready func() bool) {
	if ready() {
		return
	}
	x.mu.Unlock()
	meta.Spin(func() bool {
		x.mu.Lock()
		ok := ready()
		x.mu.Unlock()
		return ok
	})
	x.mu.Lock()
	for !ready() {
		x.cond.Wait()
	}
}

func (x *xtxn) allLive() bool {
	for i := range x.parts {
		if x.parts[i].txn == nil {
			return false
		}
	}
	return true
}

// killRound aborts every surviving participant of a round that must
// restart, and clears the round's write log. A restart may only run
// over virgin attempts: a surviving handle still buffers (write-back
// engines) or has applied (write-through engines) the aborted round's
// writes, and re-running the body over that read-your-own-writes state
// would compound them — the restarted round would read a balance the
// dead round already debited and debit it again. Each killed
// participant re-raises the abort under its own sandbox, abandons the
// attempt, and re-arrives with a fresh descriptor; determinism over
// the frozen prefix then makes the fresh round exact. Called with x.mu
// held, with no round active.
func (x *xtxn) killRound() {
	for i := range x.parts {
		if h := &x.parts[i]; h.txn != nil {
			h.txn, h.dead, h.cause = nil, true, meta.AbortSignal(meta.CauseValidation)
		}
	}
	x.wlog = x.wlog[:0]
	x.cond.Broadcast()
}

// replay redoes shard s's slice of the completed round's writes on a
// fresh attempt. Called after observing done, when the log is final.
func (x *xtxn) replay(tx stm.Tx, s int) {
	for _, w := range x.wlog {
		if w.shard == s {
			tx.Write(w.v, w.val)
		}
	}
}

// fence is the body submitted to this participant's shard. The local
// age the pipeline assigns arrives as the body's age parameter.
func (h *part) fence(tx stm.Tx, lage int) {
	x, sp, s := h.x, h.x.sp, h.shard
	var t0 int64
	if sp.so != nil {
		t0 = time.Now().UnixNano()
	}
	if !sp.pipes[s].WaitFrontier(uint64(lage)) {
		// The shard stopped while we held its queue. Every stop is
		// supposed to reach us through the coordinator first; the
		// fail call is a backstop for stops that originated below
		// the sharded layer, and a no-op otherwise.
		sp.fail(&stm.Fault{Age: x.g, Value: fmt.Sprintf("shard %d stopped under a fence", s)})
		panic(stopPanic{sp.fault.Load()})
	}
	if st, ok := tx.(meta.Stabilizer); ok {
		// Engines that advance the frontier before their
		// write-backs land (STMLite) must settle memory before the
		// rendezvous reads the frozen prefix.
		st.WaitStable()
	}
	if h == &x.parts[0] {
		x.runHome(tx)
	} else {
		x.runPeer(tx, h)
	}
	// Aborted attempts unwind past this point; only a fence that
	// completed its hold is recorded.
	if sp.so != nil {
		sp.so.fenceWait[s].Observe(time.Now().UnixNano() - t0)
		if tr := sp.so.trace; tr.Sampled(x.g) {
			tr.Record(x.g, obs.StageFence)
		}
	}
}

// runPeer contributes this shard's transaction handle to the
// rendezvous and parks while the home drives the body, holding the
// shard's commit frontier exactly at this transaction's slot.
func (x *xtxn) runPeer(tx stm.Tx, h *part) {
	x.mu.Lock()
	if x.failed != nil {
		f := x.failed
		x.mu.Unlock()
		panic(stopPanic{f})
	}
	if x.done {
		// A previous attempt of this fence was part of the completed
		// round but aborted during its commit step; redo this shard's
		// writes on the fresh attempt and commit it.
		x.mu.Unlock()
		x.replay(tx, h.shard)
		return
	}
	h.txn, h.dead = tx, false
	x.armTimeout()
	x.cond.Broadcast()
	// A timeout only releases a peer whose rendezvous never formed: once
	// a round is running the home owns our handle and completion (done,
	// dead, or a failure) is coming.
	x.await(func() bool {
		return x.done || x.failed != nil || h.dead || (x.expired && !x.roundActive)
	})
	switch {
	case h.dead:
		cause := h.cause
		x.mu.Unlock()
		// An operation the home ran on our handle aborted our attempt.
		// Re-raise the cause on our own goroutine: the shard sandbox
		// abandons the attempt and re-executes this fence, which
		// re-arrives with a fresh descriptor.
		panic(cause)
	case x.done:
		h.txn = nil
		x.mu.Unlock()
		return // writes already landed through our handle; commit
	case x.failed != nil:
		// Wait out any round still running so the home cannot touch
		// our descriptor after the sandbox abandons it.
		for x.roundActive {
			x.cond.Wait()
		}
		f := x.failed
		h.txn = nil
		x.mu.Unlock()
		panic(stopPanic{f})
	default: // expired with no round active: the rendezvous never formed
		h.txn = nil
		x.mu.Unlock()
		x.timeoutFault(h.shard)
	}
}

// runHome waits for every involved shard to arrive, then executes the
// user body against the cross-shard view. A round that dies — a peer
// or the home's own attempt aborted underneath it — is killed whole
// (killRound) and every fence re-executes on a fresh descriptor;
// determinism makes the restarted round exact: it reads the same
// frozen prefix and therefore issues the same writes.
func (x *xtxn) runHome(tx stm.Tx) {
	h := &x.parts[0]
	x.mu.Lock()
	if x.done {
		// Our own previous attempt completed the body but aborted
		// while committing; replay the home slice of the writes.
		x.mu.Unlock()
		x.replay(tx, h.shard)
		return
	}
	if x.failed != nil {
		f := x.failed
		x.mu.Unlock()
		panic(stopPanic{f})
	}
	h.txn, h.dead = tx, false
	x.armTimeout()
	x.await(func() bool { return x.failed != nil || x.allLive() || x.expired })
	if x.failed != nil {
		f := x.failed
		h.txn = nil
		x.mu.Unlock()
		panic(stopPanic{f})
	}
	if !x.allLive() {
		// Timed out with the rendezvous still short a participant: some
		// involved shard stalled below its fence. Resolve the round with
		// a fence-timeout fault instead of holding every involved
		// frontier forever.
		h.txn = nil
		x.mu.Unlock()
		x.timeoutFault(h.shard)
	}
	x.roundActive = true
	x.mu.Unlock()

	x.view.home = tx
	retry, rec := x.runRound()
	x.view.home = nil // valid for one round only

	x.mu.Lock()
	x.roundActive = false
	x.cond.Broadcast()
	if rec != nil {
		// Either our own shard's engine aborted this attempt (the
		// sandbox must see it and retry the fence) or the body
		// itself faulted (stop the world, then let the sandbox
		// see a genuine fault). A speculative abort restarts the
		// round, so the surviving peers must restart fresh too —
		// their handles carry this round's writes (see killRound).
		genuine := !speculative(rec, tx) && !x.sp.retryUnknown
		if !genuine {
			x.killRound()
		}
		h.txn = nil
		x.mu.Unlock()
		if genuine {
			x.sp.fail(&stm.Fault{Age: x.g, Value: rec})
		}
		panic(rec)
	}
	if retry {
		// A peer died mid-round. Our own attempt — and every
		// surviving peer's — already absorbed this round's writes,
		// so nobody may carry them into the restart: kill the
		// round and abandon our attempt; the re-executed fences
		// re-rendezvous on virgin descriptors.
		x.killRound()
		x.mu.Unlock()
		meta.PanicAbort(meta.CauseValidation)
	}
	x.done = true
	if x.timer != nil {
		x.timer.Stop()
	}
	// The ticket outlives the round: drop what only a round needs — the
	// body and the home attempt's handle. wlog stays for the replay a
	// fence whose commit step aborts still needs.
	x.body, h.txn = nil, nil
	x.cond.Broadcast()
	x.mu.Unlock()
	// Nothing parks on a completed round, so a global stop no longer
	// needs to find it.
	x.sp.forget(x)
}

// runRound executes one attempt of the body, separating the home's
// round-restart signal from panics that must unwind further.
func (x *xtxn) runRound() (retry bool, rec any) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(retrySignal); ok {
				retry = true
				return
			}
			rec = r
		}
	}()
	x.body(&x.view, int(x.g))
	return false, nil
}

// crossTx is the cross-shard Tx view the body executes against: each
// Read/Write routes to the live transaction handle of the shard
// owning the variable, so every access runs under that shard's own
// concurrency control. Rounds never overlap, so one view serves them
// all.
type crossTx struct {
	x    *xtxn
	home stm.Tx // this round's home attempt
}

// Age implements stm.Tx with the global age.
func (c *crossTx) Age() uint64 { return c.x.g }

// route finds the participant owning v, faulting on a shard the
// declaration did not reserve.
func (c *crossTx) route(v *stm.Var) *part {
	s := meta.ShardOf(v.ID(), c.x.sp.shards)
	for i := range c.x.parts {
		if h := &c.x.parts[i]; h.shard == s {
			return h
		}
	}
	panic(&AccessError{Age: c.x.g, Shard: s})
}

// Read implements stm.Tx.
func (c *crossTx) Read(v *stm.Var) uint64 {
	h := c.route(v)
	if h == &c.x.parts[0] {
		return c.home.Read(v) // our own engine: aborts unwind to our sandbox
	}
	var out uint64
	c.peerOp(h, func(t stm.Tx) { out = t.Read(v) })
	return out
}

// Write implements stm.Tx.
func (c *crossTx) Write(v *stm.Var, val uint64) {
	h := c.route(v)
	c.x.wlog = append(c.x.wlog, write{shard: h.shard, v: v, val: val})
	if h == &c.x.parts[0] {
		c.home.Write(v, val)
		return
	}
	c.peerOp(h, func(t stm.Tx) { t.Write(v, val) })
}

// peerOp runs one operation on a peer shard's handle. The operation
// executes on the home's goroutine, so an abort the peer's engine
// raises lands here instead of in the peer's sandbox: hand the cause
// back to the peer (it re-raises under its own sandbox, abandons the
// attempt and re-executes its fence) and restart the round.
func (c *crossTx) peerOp(h *part, op func(stm.Tx)) {
	rec := runProtected(h.txn, op)
	if rec == nil {
		return
	}
	x := c.x
	x.mu.Lock()
	h.txn, h.dead, h.cause = nil, true, rec
	x.cond.Broadcast()
	x.mu.Unlock()
	panic(retrySignal{})
}

func runProtected(tx stm.Tx, op func(stm.Tx)) (rec any) {
	defer func() { rec = recover() }()
	op(tx)
	return nil
}

// localTxn is one single-shard submission in one record: the caller's
// ticket, the shard pipeline's ticket, the user body, and the
// partition-checked Tx view every attempt runs against — the record
// itself, whose Age (the caller's ticket's) is the global age. The
// shard pipeline runs its run method. Touching a variable owned by
// another shard would bypass that shard's engine entirely, so it
// faults instead.
type localTxn struct {
	Ticket
	lt    stm.Ticket // the shard pipeline's ticket for this submission
	body  stm.Body
	shard int
	// tx is the running attempt's handle. Attempts of one age never
	// overlap (DESIGN.md §10), so they can share the view.
	tx stm.Tx
}

// run is the body the shard pipeline executes.
func (l *localTxn) run(tx stm.Tx, _ int) {
	defer l.guard(tx)
	l.tx = tx
	l.body(l, int(l.g))
}

// guard ends an attempt. It drops the attempt's handle, which the
// engine retires to its pool once the attempt is over, so a ticket the
// caller keeps does not keep the descriptor. It also mirrors the
// run-loop sandbox's fault classification one level up: a genuine
// fault must stop every shard, not just the one that hit it, so the
// global predefined order is cut at a single point.
func (l *localTxn) guard(tx stm.Tx) {
	l.tx = nil
	rec := recover()
	if rec == nil {
		return
	}
	if !speculative(rec, tx) && !l.sp.retryUnknown {
		l.sp.fail(&stm.Fault{Age: l.g, Value: rec})
	}
	panic(rec)
}

func (l *localTxn) check(v *stm.Var) {
	if s := meta.ShardOf(v.ID(), l.sp.shards); s != l.shard {
		panic(&AccessError{Age: l.g, Shard: s})
	}
}

// Read implements stm.Tx.
func (l *localTxn) Read(v *stm.Var) uint64 { l.check(v); return l.tx.Read(v) }

// Write implements stm.Tx.
func (l *localTxn) Write(v *stm.Var, x uint64) { l.check(v); l.tx.Write(v, x) }

// speculative reports whether a recovered panic is attributable to
// speculation on tx's shard, mirroring the run-loop sandbox's tests:
// an engine abort signal, a doomed attempt, or an invalid read set.
func speculative(rec any, tx stm.Tx) bool {
	if _, ok := meta.AbortCause(rec); ok {
		return true
	}
	if mt, ok := tx.(meta.Txn); ok && mt.Doomed() {
		return true
	}
	if rv, ok := tx.(meta.Revalidator); ok && !rv.ReadSetValid() {
		return true
	}
	return false
}
