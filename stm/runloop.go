package stm

import (
	"sync"
	"sync/atomic"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/stm/obs"
)

// This file is the shared execution core behind both front-ends:
// Executor.Run (one-shot batch) and Pipeline (open-ended stream). It
// is the paper's thread execution model (Algorithm 5) — a pool of
// workers speculatively executes transactions; for the cooperative
// engines a flat-combining validator role commits exposed transactions
// strictly in age order, re-executing reachable failures inline, and a
// cleaner step reclaims metadata; a run-ahead window throttles workers
// that get too far ahead of the commit frontier — with two batch-era
// assumptions removed: the loop has no fixed transaction count, and
// every age carries its own Body.
//
// Over a stream, the cooperative engines also run ages *directly*: one
// worker at a time, each age only once every lower age has committed,
// straight against memory with no engine bookkeeping — what the
// Sequential engine does. A policy on the commit path times epochs of
// commits in each mode and keeps the faster (mode.go); an age's mode is
// fixed by the claim that takes it (see runDirect for why nothing
// speculative ever overlaps a direct age).
//
// Speculation is throttled by what the loop observes at the frontier.
// A failed attempt retries only after one more commit than the
// frontier it started at (capped at its own age): the lower age that
// beat it must commit before a re-run can win. And the run-ahead
// window narrows while exposed attempts fail at the frontier, halving
// per failure down to 2*Workers, and regrows by one per clean commit
// up to Config.Window.
//
// The steady-state path is allocation-free: each loop goroutine owns a
// wctx bundling a descriptor pool (meta.TxnPool — recycled descriptors
// with generation stamps) and a padded stats cell, and the commit ring
// embeds its cells in place (a seq-stamped slot per age instead of a
// freshly allocated exposedCell per expose).

// feed supplies work to the shared run-loop and observes its progress.
// batchFeed (executor.go) serves a fixed count of one shared body;
// stream (pipeline.go) serves an unbounded sequence of heterogeneous
// submissions.
type feed interface {
	// claim hands the calling worker w the next age, its body, and
	// whether the age runs directly. It may block while more work can
	// still arrive; a blocked claim must return when stop() becomes
	// true. ok=false tells the worker to exit: the feed is exhausted
	// (batch done, or stream closed and fully claimed).
	claim(w *wctx, stop func() bool) (age uint64, body Body, direct, ok bool)
	// committed reports that age reached its final commit. Only the
	// cooperative engines report in strict age order (the holder of
	// the validator token reports, for a speculative age and a direct
	// one alike). Every other mode reports from the workers after
	// TryCommit returns, and an ordered blocked engine (Ordered TL2,
	// NOrec, UndoLog) completes the age in the order inside TryCommit,
	// so the next age's worker can report first: reports may arrive
	// out of age order and may overlap.
	committed(age uint64)
	// halted reports that the loop stopped before draining (a body
	// faulted). The feed must wake anything blocked in claim or in a
	// producer-side wait. Every age below frontier completed in the
	// order before the stop and is still reported through committed.
	halted(f *Fault, frontier uint64)
}

// ringSlot holds one exposed transaction in the commit ring, embedded
// in place. stamp is age+1 while the slot is full (0 empty/consumed);
// it is the only synchronization between the exposing worker and the
// validator: the worker writes txn/body before storing the stamp, the
// validator reads them only after loading a matching stamp, and clears
// the slot before advancing the commit frontier — the frontier advance
// is what lets a later age's worker write the slot again, so the
// plain-field accesses never overlap. The body rides along so the
// validator can re-execute a reachable failure without assuming every
// age runs the same code.
type ringSlot struct {
	stamp atomic.Uint64
	txn   meta.Txn
	body  Body
}

// wctx is one loop goroutine's execution context: its descriptor
// source and its stats cell. Pools and cells are not shared across
// goroutines (that is the point); descriptors themselves circulate
// freely — the validator retires attempts that workers allocated, and
// the engine-side depot rebalances the freelists.
type wctx struct {
	src  meta.TxnPool
	cell *meta.StatsCell
	// unreached marks an attempt abandoned on a panic at an age the
	// order could not yet reach; the retry first waits for that age.
	unreached bool
	// direct marks the goroutine holding the stream's direct seat: the
	// one worker that claims while the stream is in direct mode.
	direct bool
	dtx    directTxn // the descriptor of this goroutine's direct ages
}

// freshSource is the no-recycling descriptor source: one fresh
// descriptor per attempt (engines without pool support, and the
// Config.FreshDescriptors escape hatch).
type freshSource struct{ eng meta.Engine }

func (f freshSource) NewTxn(age uint64) meta.Txn { return f.eng.NewTxn(age) }
func (f freshSource) Retire(meta.Txn)            {}

// loop is the engine-driving state shared by one batch run or one
// pipeline. The commit ring covers the in-flight window only, so its
// size is independent of how many transactions will ever flow through.
type loop struct {
	cfg     Config
	eng     meta.Engine
	mode    meta.Mode
	order   *meta.Order
	stats   *meta.Stats
	feed    feed
	base    uint64 // first age of the stream (Config.FirstAge; 0 for batch)
	workers int

	stopf   func() bool    // hoisted l.stop closure (avoids per-call method-value allocs)
	trace   *obs.TraceRing // sampled lifecycle trace; nil without Config.Obs
	modal   *stream        // the feed whose claims switch mode; nil for a batch or a non-cooperative engine
	ring    []ringSlot
	mask    uint64
	vtok    atomic.Bool
	gate    atomic.Bool
	stopped atomic.Bool
	fault   atomic.Pointer[Fault]
	kick    chan struct{}
	// modes is the mode policy's state: written by the holder of vtok
	// on every commit, so it shares that line.
	modes modeState

	// window is the run-ahead window in force (cooperative engines):
	// workers read it at every claim, and only the holder of the
	// validator token writes it — a failed exposed attempt halves it
	// (floor 2*Workers), each clean commit regrows it by one up to
	// Config.Window. It is stored only when it changes, so under few
	// conflicts the line stays read-only; the pads keep the token and
	// gate flags, written on every validate, off it.
	//
	// specFrom, read at every speculative claim and written once per
	// switch to speculation, shares the read-mostly line: it is the
	// first age of the newest speculative segment (see worker).
	_        [64]byte
	window   atomic.Uint64
	specFrom atomic.Uint64
	_        [48]byte
}

// newLoop wires a loop over a fresh engine. span bounds how many ages
// can be in flight at once (window + one in-progress age per worker,
// plus slack); the cooperative commit ring is sized to cover it.
// ringCap, when nonzero, caps the ring at the next power of two ≥
// ringCap (a batch of n transactions never needs more than n slots).
func newLoop(cfg Config, eng meta.Engine, order *meta.Order, stats *meta.Stats, f feed, span, ringCap uint64) *loop {
	workers := cfg.Workers
	if eng.Mode() == meta.ModeLite && workers > 1 {
		workers-- // the TCM goroutine counts as one of the paper's threads
	}
	l := &loop{
		cfg:     cfg,
		eng:     eng,
		mode:    eng.Mode(),
		order:   order,
		stats:   stats,
		feed:    f,
		base:    cfg.FirstAge,
		workers: workers,
		kick:    make(chan struct{}, 1),
	}
	l.stopf = l.stop
	l.window.Store(uint64(cfg.Window))
	if l.mode == meta.ModeCooperative {
		size := uint64(1)
		for size < 4*span {
			size <<= 1
		}
		if ringCap != 0 && size > ringCap {
			rounded := uint64(1)
			for rounded < ringCap {
				rounded <<= 1
			}
			size = rounded
		}
		l.ring = make([]ringSlot, size)
		l.mask = size - 1
		if st, ok := f.(*stream); ok {
			l.modal = st
			l.modes.start()
			st.setDirect(true, &l.specFrom) // start direct (mode.go)
		}
	}
	return l
}

func (l *loop) stop() bool { return l.stopped.Load() }

// newCtx builds the per-goroutine execution context: a recycling
// descriptor pool when the engine supports one (and the configuration
// does not opt out), plus a fresh stats cell.
func (l *loop) newCtx() *wctx {
	w := &wctx{cell: l.stats.NewCell()}
	if pe, ok := l.eng.(meta.PoolEngine); ok && !l.cfg.FreshDescriptors {
		w.src = pe.NewPool()
	} else {
		w.src = freshSource{eng: l.eng}
	}
	return w
}

// fail records the first fault, stops the loop, and wakes everything
// that could be waiting: order waiters (including blocked engines
// parked in WaitTurn, via Halt), the validator, and the feed.
func (l *loop) fail(f *Fault) {
	l.fault.CompareAndSwap(nil, f)
	l.stopped.Store(true)
	l.order.Halt()
	l.kickMain()
	l.feed.halted(l.fault.Load(), l.order.Committed())
}

func (l *loop) kickMain() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// spawnWorkers starts the worker pool; callers wait on wg.
func (l *loop) spawnWorkers(wg *sync.WaitGroup) {
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.worker()
		}()
	}
}

// validatorLoop keeps the validator role alive on the calling
// goroutine so commits never stall while all workers sit in the
// throttle window. drained reports that every age the feed will ever
// produce has committed. Only cooperative engines need it.
//
// The loop must never park while a committable cell sits in the ring:
// validate() can lose the token to a worker whose own scan read the
// ring just before the frontier cell was exposed — that worker finds
// nothing, the exposing worker's validate() loses the same CAS, and
// the expose's kick was already consumed by the receive that led
// here. Parking then would strand the frontier forever (every later
// commit needs this one first), so re-poll until the token frees up.
func (l *loop) validatorLoop(drained func() bool) {
	w := l.newCtx()
	spin := 0
	for !l.stop() && !drained() {
		l.validate(w)
		if l.stop() || drained() {
			return
		}
		if l.committable() {
			spin++
			meta.Pause(spin + 3) // token contended; retry, yielding the CPU
			continue
		}
		spin = 0
		<-l.kick
	}
}

// committable reports whether the age at the commit frontier is
// exposed in the ring (the validator has work). Exposes store the
// stamp after the fields and kick afterwards, so a false result here
// followed by a park on the kick channel cannot miss work: any later
// expose leaves either the stamp (seen by the next poll) or a kick
// token (unparking us).
func (l *loop) committable() bool {
	if l.mask == 0 {
		return false
	}
	next := l.order.Committed()
	return l.ring[next&l.mask].stamp.Load() == next+1
}

// worker is Algorithm 5's per-thread loop.
func (l *loop) worker() {
	defer l.kickMain() // wake the validator loop on exit
	w := l.newCtx()
	for !l.stop() {
		age, body, direct, ok := l.feed.claim(w, l.stopf)
		if !ok {
			return
		}
		if direct {
			if !l.runDirect(w, age, body) {
				return
			}
			continue
		}
		if l.mode == meta.ModeCooperative {
			// A speculative segment starts none of its ages before the
			// frontier reaches its first age: no direct age below it is
			// still running then. specFrom may already name a later
			// segment's start; min keeps the wait below this age.
			if from := min(l.specFrom.Load(), age); l.order.Committed() < from {
				l.order.WaitReachable(from, l.stopf)
			}
			// Throttle: stay within the run-ahead window of the commit
			// frontier (Algorithm 5 lines 18–24).
			if window := l.window.Load(); age >= l.base+window {
				l.order.WaitReachable(age-window, l.stopf)
			}
		}
		if !l.runOne(w, age, body) {
			return
		}
		if l.mode == meta.ModeCooperative {
			l.validate(w) // flat combining: opportunistically take the role
		}
	}
}

// runOne drives one age to its exposed (cooperative) or committed
// (other modes) state, retrying aborted attempts with recycled
// descriptors. Returns false if the loop stopped.
func (l *loop) runOne(w *wctx, age uint64, body Body) bool {
	var front uint64 // the commit frontier when the last attempt started
	for attempt := 0; ; attempt++ {
		if l.stop() {
			return false
		}
		for spin := 0; l.gate.Load() && !l.stop(); spin++ {
			meta.Pause(spin) // validator quiesce in progress
		}
		if attempt > 0 {
			w.cell.Retry()
			// Algorithm 5 line 18: an aborted transaction waits for
			// the commit frontier before it runs again. Whatever
			// beat the last attempt (a lower age's lock or write) is
			// still there until a lower age commits, so a retry
			// waits for one commit past the frontier the last
			// attempt saw, capped at its own age: an age that was
			// already reachable must not wait for its own commit.
			// One aborted RetriesBeforeReachable times waits until
			// it is reachable. Blocked and lite engines get the same
			// treatment (the bounded-buffer stalling of the paper's
			// blocking baselines).
			switch {
			case l.mode == meta.ModeUnordered:
				// no order to wait on
			case w.unreached:
				// The last attempt panicked before its age was
				// reachable; this one runs where a panic is genuine.
				w.unreached = false
				l.order.WaitReachable(age, l.stopf)
			case l.mode == meta.ModeLite:
				// A denied STMLite transaction re-executes right at
				// the commit frontier: grants are in age order anyway,
				// and retrying far from the frontier just feeds the
				// signature false-conflict loop.
				l.order.WaitReachable(age, l.stopf)
			case attempt >= meta.RetriesBeforeReachable:
				l.order.WaitReachable(age, l.stopf)
			default:
				l.order.WaitReachable(min(front+1, age), l.stopf)
			}
		}
		if l.trace.Sampled(age) {
			l.trace.Record(age, obs.StageExecute)
		}
		front = l.order.Committed()
		txn := w.src.NewTxn(age)
		if !l.sandbox(w, txn, body) {
			continue
		}
		if !txn.TryCommit() {
			w.src.Retire(txn)
			continue
		}
		if l.mode == meta.ModeCooperative {
			slot := &l.ring[age&l.mask]
			slot.txn, slot.body = txn, body
			slot.stamp.Store(age + 1)
			l.kickMain()
		} else {
			w.cell.Commit()
			l.feed.committed(age)
			w.src.Retire(txn)
		}
		return true
	}
}

// runDirect runs a direct age: once every lower age has committed, the
// worker takes the validator token, runs the body straight against
// memory through its directTxn, and commits the age as the validator
// would. The token orders its commit report after the last speculative
// one and lets the mode policy see commits one at a time; no other
// validator work exists while a direct age runs.
//
// Nothing speculative overlaps a direct age, which matters because its
// writes bump no lock versions and register with no reader: every
// lower age has committed before it starts (the wait below), and a
// higher speculative age starts only once the frontier has reached its
// segment's first age (worker), which is above this one. An abort
// signal — a cross-shard rendezvous restarting its round — undoes the
// attempt and runs it again; any other panic is the age's fault, as
// the age is reachable. Returns false if the loop stopped.
func (l *loop) runDirect(w *wctx, age uint64, body Body) bool {
	l.order.WaitReachable(age, l.stopf)
	for spin := 0; !l.vtok.CompareAndSwap(false, true); spin++ {
		if l.stop() {
			return false
		}
		meta.Pause(spin) // the validator finishing the last speculative commit
	}
	txn := &w.dtx
	for {
		if l.stop() {
			l.vtok.Store(false)
			return false
		}
		if l.trace.Sampled(age) {
			l.trace.Record(age, obs.StageExecute)
		}
		txn.begin(age)
		if l.sandbox(w, txn, body) {
			break
		}
		w.cell.Retry()
	}
	txn.end()
	l.order.Complete(age)
	w.cell.Commit()
	l.feed.committed(age)
	l.noteCommit(age, true)
	l.vtok.Store(false)
	return true
}

// sandbox runs the body, containing speculative faults: an abort
// signal or a doomed/invalid snapshot leads to a retry. So does any
// panic at an age the order cannot reach yet: in the sequential fold
// every lower age commits before this one runs, so the panic is the
// fault only once it recurs at a reachable age (runOne waits for that
// before the retry). Anything else is a genuine fault and stops the
// loop. Abandoned attempts are retired into the calling goroutine's
// pool.
func (l *loop) sandbox(w *wctx, txn meta.Txn, body Body) (ok bool) {
	w.cell.Start()
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		ok = false
		// Classify before abandoning: AbandonAttempt dooms the attempt,
		// so the Doomed probe must see the pre-abandon state.
		if _, isAbort := meta.AbortCause(rec); isAbort || txn.Doomed() {
			txn.AbandonAttempt()
			w.src.Retire(txn)
			return
		}
		if rv, can := txn.(meta.Revalidator); can && !rv.ReadSetValid() {
			txn.AbandonAttempt()
			w.src.Retire(txn)
			return
		}
		if l.mode != meta.ModeUnordered && !l.order.Reachable(txn.Age()) {
			txn.AbandonAttempt()
			w.src.Retire(txn)
			w.unreached = true
			return
		}
		if l.cfg.RetryUnknownPanics {
			txn.AbandonAttempt()
			w.src.Retire(txn)
			return
		}
		txn.AbandonAttempt()
		fault := &Fault{Age: txn.Age(), Value: rec}
		w.src.Retire(txn)
		l.fail(fault)
	}()
	body(txn, int(txn.Age()))
	return true
}

// validate is the flat-combining validator role (Algorithm 5 lines
// 2–17): whoever wins the token commits exposed transactions in age
// order; a commit-pending transaction that fails its final validation
// is re-executed inline — it is reachable, so the re-execution wins
// every conflict and commits.
func (l *loop) validate(w *wctx) {
	if !l.vtok.CompareAndSwap(false, true) {
		return
	}
	defer l.vtok.Store(false)
	for !l.stop() {
		next := l.order.Committed()
		slot := &l.ring[next&l.mask]
		if slot.stamp.Load() != next+1 {
			return // not exposed yet (or past the end of the stream)
		}
		txn, body := slot.txn, slot.body
		slot.txn, slot.body = nil, nil
		slot.stamp.Store(0)
		if txn.Commit() {
			l.order.Complete(next)
			w.cell.Commit()
			txn.Cleanup() // cleaner role
			w.src.Retire(txn)
			l.feed.committed(next)
			l.noteCommit(next, false)
			if win := l.window.Load(); win < uint64(l.cfg.Window) {
				l.window.Store(win + 1)
			}
			continue
		}
		w.src.Retire(txn) // the exposed attempt aborted; re-drive the age
		if win, floor := l.window.Load(), uint64(2*l.cfg.Workers); win > floor {
			l.window.Store(max(win/2, floor))
		}
		l.reexecute(w, next, body)
	}
}

// quiesceAfter is the number of failed re-executions of a reachable
// transaction after which reexecute gates new exposes to guarantee
// progress; see DESIGN.md §5.
const quiesceAfter = 8

// reexecute drives the reachable transaction at the given age to
// commit, gating new exposes (quiesce) if higher-age transactions keep
// invalidating it; see DESIGN.md §5.
func (l *loop) reexecute(w *wctx, age uint64, body Body) {
	gated := false
	defer func() {
		if gated {
			l.gate.Store(false)
		}
	}()
	for attempt := 0; !l.stop(); attempt++ {
		if attempt >= quiesceAfter && !gated {
			gated = true
			l.gate.Store(true)
			w.cell.Quiesce()
		}
		w.cell.Retry()
		txn := w.src.NewTxn(age)
		if !l.sandbox(w, txn, body) {
			continue
		}
		if !txn.TryCommit() {
			w.src.Retire(txn)
			continue
		}
		if txn.Commit() {
			l.order.Complete(age)
			w.cell.Commit()
			txn.Cleanup()
			w.src.Retire(txn)
			l.feed.committed(age)
			l.noteCommit(age, false)
			return
		}
		w.src.Retire(txn)
	}
}
