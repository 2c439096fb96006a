package core

import (
	"sync"
	"sync/atomic"

	"github.com/orderedstm/ostm/internal/meta"
)

// oulLock is one lock-table record for OUL: the single writer
// reference (which doubles as "the transaction that committed this
// version" after the writer commits) plus the bounded visible-reader
// slot array, allocated lazily on first transactional read.
//
// Both the writer word and the reader slots hold generation-stamped
// meta.Refs rather than pointers: descriptors are recycled through
// per-worker freelists, and a pointer CAS could otherwise claim a word
// whose descriptor was recycled into a live attempt that legitimately
// re-acquired the very record (descriptor ABA). A Ref carries the
// generation of the life that published it, so stale references are
// detected exactly (Ref.SameLife against the descriptor's packed
// status word) and value CASes cannot cross a life boundary.
type oulLock struct {
	writer  meta.RefWord
	readers meta.LazyRefSlots
}

// OULEngine implements the Ordered Undo Log algorithm (§6).
type OULEngine struct {
	cfg   meta.EngineConfig
	locks *meta.Table[oulLock]
	descs meta.Registry[OULTxn]
	depot meta.Depot[OULTxn]
}

// NewOUL returns a fresh OUL engine for one run.
func NewOUL(cfg meta.EngineConfig) *OULEngine {
	return &OULEngine{cfg: cfg.Normalize(), locks: meta.NewTable[oulLock](cfg.Normalize().TableBits)}
}

// Name implements meta.Engine.
func (e *OULEngine) Name() string { return "OUL" }

// Mode implements meta.Engine.
func (e *OULEngine) Mode() meta.Mode { return meta.ModeCooperative }

// Stats implements meta.Engine.
func (e *OULEngine) Stats() *meta.Stats { return e.cfg.Stats }

// alloc registers a brand-new descriptor.
func (e *OULEngine) alloc(cell *meta.StatsCell) *OULTxn {
	t := &OULTxn{eng: e, cell: cell}
	t.idx = e.descs.Add(t)
	return t
}

// at resolves a descriptor reference (any generation) to its
// descriptor.
func (e *OULEngine) at(r meta.Ref) *OULTxn { return e.descs.At(r.Idx()) }

// NewTxn implements meta.Engine: a fresh, never-recycled descriptor
// (tests and non-pooled paths; the run-loop allocates through NewPool).
func (e *OULEngine) NewTxn(age uint64) meta.Txn {
	t := e.alloc(e.cfg.Stats.DefaultCell())
	t.age.Store(age)
	return t
}

// NewPool implements meta.PoolEngine: a worker-local freelist backed by
// the engine-wide depot, with its own stats cell.
func (e *OULEngine) NewPool() meta.TxnPool {
	return &oulPool{eng: e, cache: meta.NewCache(&e.depot), cell: e.cfg.Stats.NewCell()}
}

// oulPool recycles finalized descriptors for one run-loop goroutine,
// renewing them in place and reusing the writes/readRefs backing
// arrays.
type oulPool struct {
	eng   *OULEngine
	cache *meta.Cache[OULTxn]
	cell  *meta.StatsCell
}

// NewTxn implements meta.TxnPool. A final descriptor's undo log is
// dead — only its own rollback ever reads it — so renewal needs no
// wait.
func (p *oulPool) NewTxn(age uint64) meta.Txn {
	t := p.cache.Get()
	if t == nil {
		t = p.eng.alloc(p.cell)
		t.age.Store(age)
		return t
	}
	t.writes = t.writes[:0]
	t.readRefs = t.readRefs[:0]
	t.doomed.Store(false)
	t.age.Store(age)
	t.status.Renew()
	return t
}

// Retire implements meta.TxnPool: cache a finalized attempt for reuse.
// Reader slots still holding this life's registrations are scrubbed
// (aborted attempts never cleared them; for committed ones Cleanup
// already did and the CAS is a no-op).
func (p *oulPool) Retire(x meta.Txn) {
	t, ok := x.(*OULTxn)
	if !ok || t.eng != p.eng || !t.status.Load().Final() {
		return
	}
	r := t.ref()
	for i := range t.readRefs {
		rr := &t.readRefs[i]
		rr.arr.Slots[rr.idx].CAS(r, meta.RefNil)
	}
	p.cache.Put(t)
}

// oulWriteEntry is one undo-log record: the variable, its lock record
// and the value it held just before this transaction's first write to
// it.
type oulWriteEntry struct {
	v    *meta.Var
	lock *oulLock
	old  uint64
}

type oulReadRef struct {
	arr *meta.RefSlotArray
	idx int
}

// OULTxn is one OUL transaction attempt descriptor. With
// per-worker freelists a descriptor serves many attempts over its
// lifetime; each attempt is one *life*, delimited by StatusWord.Renew.
//
// Lifecycle within a life: Active (live, write-through with
// encounter-time locks) → Pending (commit-pending after TryCommit) →
// Committed, with Transient marking an in-progress rollback and
// Aborted final. Commit is O(1): a status flip releases every lock,
// because locks point back at the transaction (§6: "setting the
// transaction status is sufficient to release all the locks ... with a
// single step").
type OULTxn struct {
	eng  *OULEngine
	cell *meta.StatsCell // set once at allocation
	idx  uint32          // registry index (stable across lives)

	age    atomic.Uint64 // atomic: stale-ref observers race renewal
	status meta.StatusWord
	doomed atomic.Bool

	mu       sync.Mutex // guards writes against aborter-performed rollback
	writes   []oulWriteEntry
	readRefs []oulReadRef
}

// ref returns the reference for this descriptor's current life. Only
// the life's owner may take it as its own; anyone else acts on the Ref
// they resolved, since the descriptor may renew under them.
func (t *OULTxn) ref() meta.Ref { return meta.MakeRef(t.idx, t.status.Gen()) }

// Age implements meta.Txn.
func (t *OULTxn) Age() uint64 { return t.age.Load() }

// Doomed implements meta.Txn.
func (t *OULTxn) Doomed() bool { return t.doomed.Load() }

func (t *OULTxn) checkDoom() {
	if t.doomed.Load() {
		meta.PanicAbort(meta.CauseNone)
	}
}

// live reports whether a writer still speculatively owns its locks
// (Active or Pending; a Transient writer is mid-rollback).
func oulLive(s meta.Status) bool {
	return s == meta.StatusActive || s == meta.StatusPending
}

// abort dooms the life r names and, if it can claim that life while it
// still owns its locks, performs the rollback on the caller's thread
// (the paper's aborter-performed rollback). The claim is one CAS on the
// packed (generation, status) word, so a life that finalized and was
// renewed after the caller resolved r is never rolled back. The doom
// flag is not per life: one landing just after a renewal only aborts
// the new life spuriously. Never blocks.
func (t *OULTxn) abort(r meta.Ref, c meta.Cause) bool {
	if life := t.status.LoadLife(); !r.SameLife(life) || life.Status().Final() {
		return false // already committed or aborted (Algorithm 3 line 58)
	}
	first := t.doomed.CompareAndSwap(false, true)
	if first {
		t.cell.Abort(c)
	}
	for life := t.status.LoadLife(); r.SameLife(life) && oulLive(life.Status()); life = t.status.LoadLife() {
		if t.status.CASLife(life, meta.StatusTransient) {
			t.rollback(r)
			t.status.Store(meta.StatusAborted)
			t.eng.cfg.Order.Kick()
			break
		}
	}
	return first
}

func (t *OULTxn) selfAbort(c meta.Cause) {
	t.abort(t.ref(), c)
	meta.PanicAbort(c)
}

// rollback restores this transaction's undo log (Algorithm 3 lines
// 57–75) and aborts the higher-age readers that may have consumed the
// rolled-back values. self is the life the caller claimed. Every lock
// word keeps self throughout: the Transient status holds readers and
// writers off while the values are restored, and once the life is
// Aborted its reference is claimable like RefNil. A word never returns
// to RefNil, so a reader that saw RefNil before this life acquired the
// record cannot pass its re-check with a rolled-back value in hand
// (ABA; DESIGN §3). Each record's readers are scanned after all of its
// variables are restored (several may alias to it).
func (t *OULTxn) rollback(self meta.Ref) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.writes) - 1; i >= 0; i-- {
		t.writes[i].v.Store(t.writes[i].old)
	}
	for i := range t.writes {
		if !t.lockEntryAfter(i) {
			t.killReaders(self, t.writes[i].lock, meta.CauseCascade)
		}
	}
}

// lockEntryAfter reports whether writes[i].lock appears again at a
// higher index (rollback scans each lock record once, at its last
// entry).
func (t *OULTxn) lockEntryAfter(i int) bool {
	for j := i + 1; j < len(t.writes); j++ {
		if t.writes[j].lock == t.writes[i].lock {
			return true
		}
	}
	return false
}

// killReaders aborts every visible reader of lk with a higher age than
// the life self (R2→W1 during writes, cascade during rollback). Stale
// slot references — registrations from lives that already finalized —
// are left alone by abort: the attempt they belonged to is gone, and
// the descriptor's current life never consumed this record through
// that slot. A writer publishes its value before it calls this, so a
// reader registering after the scan loads the new value.
func (t *OULTxn) killReaders(self meta.Ref, lk *oulLock, c meta.Cause) {
	arr := lk.readers.Peek()
	if arr == nil {
		return
	}
	myAge := t.age.Load()
	for i := range arr.Slots {
		ref := arr.Slots[i].Load()
		if !ref.IsTxn() || ref == self {
			continue
		}
		if r := t.eng.at(ref); r.age.Load() > myAge {
			r.abort(ref, c)
		}
	}
}

// Read implements Algorithm 2 lines 1–22: abort a higher-age
// speculative writer (W2→R1), otherwise register as a visible reader
// (claiming a bounded slot), read in place — which naturally forwards
// values written by live lower-age writers — and re-check the writer.
// The load precedes the re-check: a higher-age writer that acquires
// the record afterwards spares this lower-age reader, so only the
// re-check can catch a value it stored before the load.
func (t *OULTxn) Read(v *meta.Var) uint64 {
	lk := t.eng.locks.Of(v)
	self := t.ref()
	for spin := 0; ; spin++ {
		t.checkDoom()
		ref := lk.writer.Load()
		if ref == meta.RefBusy {
			meta.Pause(spin)
			continue
		}
		if ref.IsTxn() && ref != self {
			w := t.eng.at(ref)
			life := w.status.LoadLife()
			if ref.SameLife(life) {
				s := life.Status()
				if s == meta.StatusTransient {
					meta.Pause(spin) // rollback in flight: value unstable
					continue
				}
				if oulLive(s) && w.age.Load() > t.age.Load() {
					w.abort(ref, meta.CauseRAW) // W2→R1
					meta.Pause(spin)
					continue
				}
			}
			// Stale or final: that life is over and the in-place value
			// is committed state — read through, like any record whose
			// last writer committed.
		}
		if !t.register(lk) {
			meta.PanicAbort(meta.CauseNone) // doomed while spinning for a slot
		}
		x := v.Load()
		if lk.writer.Load() != ref { // writer changed while registering or loading
			meta.Pause(spin)
			continue
		}
		return x
	}
}

// register claims a visible-reader slot on lk (Algorithm 2 lines 9–17).
// A slot is free when empty or when its occupant reference is stale or
// final. If every slot stays occupied past the spin budget, the reader
// dooms the highest-age occupant above its own age — the bounded reader
// array must never deadlock the commit frontier (a lower-age reader
// blocked by higher-age occupants that cannot commit before it).
// Returns false only if this transaction is doomed while waiting for a
// slot.
func (t *OULTxn) register(lk *oulLock) bool {
	arr := lk.readers.Get(t.eng.cfg.MaxReaders)
	self := t.ref()
	for spin := 0; ; spin++ {
		for i := range arr.Slots {
			cur := arr.Slots[i].Load()
			if cur == self {
				return true // already visible on this lock (this life)
			}
			if cur == meta.RefNil || t.slotFree(cur) {
				if arr.Slots[i].CAS(cur, self) {
					t.readRefs = append(t.readRefs, oulReadRef{arr: arr, idx: i})
					return true
				}
			}
		}
		if t.doomed.Load() {
			return false
		}
		if spin > 0 && spin%t.eng.cfg.SpinBudget == 0 {
			t.evictSlot(arr)
		}
		meta.Pause(spin)
	}
}

// slotFree reports whether a reader-slot occupant reference is dead:
// stale (its life finalized and the descriptor renewed) or final.
func (t *OULTxn) slotFree(cur meta.Ref) bool {
	if !cur.IsTxn() {
		return cur == meta.RefNil
	}
	r := t.eng.at(cur)
	life := r.status.LoadLife()
	return !cur.SameLife(life) || life.Status().Final()
}

// evictSlot dooms the highest-age live occupant older than t so a
// lower-age reader can always register (age-based slot priority).
func (t *OULTxn) evictSlot(arr *meta.RefSlotArray) {
	self := t.ref()
	myAge := t.age.Load()
	var victim *OULTxn
	var victimRef meta.Ref
	var victimAge uint64
	for i := range arr.Slots {
		ref := arr.Slots[i].Load()
		if !ref.IsTxn() || ref == self {
			continue
		}
		cur := t.eng.at(ref)
		life := cur.status.LoadLife()
		if !ref.SameLife(life) || !oulLive(life.Status()) {
			continue
		}
		if a := cur.age.Load(); a > myAge && (victim == nil || a > victimAge) {
			victim, victimRef, victimAge = cur, ref, a
		}
	}
	if victim != nil {
		victim.abort(victimRef, meta.CauseBusy)
	}
}

// Write implements Algorithm 2 lines 23–49: acquire the write lock
// resolving conflicts by age — aborting a higher-age holder (W2→W1) or
// ourselves on a lower-age holder (W1→W2) — then write through and
// abort higher-age visible readers (R2→W1).
func (t *OULTxn) Write(v *meta.Var, x uint64) {
	lk := t.eng.locks.Of(v)
	self := t.ref()
	for spin := 0; ; spin++ {
		t.checkDoom()
		ref := lk.writer.Load()
		if ref == meta.RefBusy {
			meta.Pause(spin)
			continue
		}
		if ref == self {
			// Already own the lock (possibly writing a second variable
			// aliased to it).
			t.mu.Lock()
			if t.doomed.Load() {
				t.mu.Unlock()
				meta.PanicAbort(meta.CauseNone)
			}
			// The lock word stays self, so readers are not held off:
			// publish before scanning them.
			t.appendUndo(v, lk)
			v.Store(x)
			t.killReaders(self, lk, meta.CauseKilledReader)
			t.mu.Unlock()
			return
		}
		if ref.IsTxn() {
			w := t.eng.at(ref)
			life := w.status.LoadLife()
			if ref.SameLife(life) {
				s := life.Status()
				if s == meta.StatusTransient {
					meta.Pause(spin)
					continue
				}
				if oulLive(s) {
					if w.age.Load() > t.age.Load() {
						w.abort(ref, meta.CauseWAW) // W2→W1
						meta.Pause(spin)
						continue
					}
					t.selfAbort(meta.CauseWAW) // W1→W2
				}
			}
			// Stale or final occupant: that life is over; claimable.
		}
		if !lk.writer.CAS(ref, meta.RefBusy) {
			meta.Pause(spin)
			continue
		}
		t.mu.Lock()
		if t.doomed.Load() {
			t.mu.Unlock()
			lk.writer.Store(ref) // undo the BUSY parking
			meta.PanicAbort(meta.CauseNone)
		}
		t.appendUndo(v, lk)
		t.killReaders(self, lk, meta.CauseKilledReader)
		v.Store(x) // RefBusy holds readers off until the publish below
		lk.writer.Store(self)
		t.mu.Unlock()
		return
	}
}

// appendUndo records the pre-image of v, once per variable.
func (t *OULTxn) appendUndo(v *meta.Var, lk *oulLock) {
	for i := range t.writes {
		if t.writes[i].v == v {
			return
		}
	}
	t.writes = append(t.writes, oulWriteEntry{v: v, lock: lk, old: v.Load()})
}

// TryCommit implements Algorithm 3 lines 50–52: values are already in
// shared memory, so commit-pending is a single status transition.
func (t *OULTxn) TryCommit() bool {
	if t.status.CAS(meta.StatusActive, meta.StatusPending) {
		if t.doomed.Load() {
			// An aborter doomed us as we went pending; make sure the
			// abort is finalized (it may have lost the status race).
			t.abort(t.ref(), meta.CauseNone)
			t.awaitFinal()
			return false
		}
		return true
	}
	t.awaitFinal()
	return false
}

// Commit implements Algorithm 3 lines 53–56: flip Pending→Committed,
// releasing every lock in one step. Called by the validator once the
// transaction is reachable.
func (t *OULTxn) Commit() bool {
	for spin := 0; ; spin++ {
		if t.status.CAS(meta.StatusPending, meta.StatusCommitted) {
			return true
		}
		s := t.status.Load()
		switch s {
		case meta.StatusCommitted:
			return true
		case meta.StatusAborted:
			return false
		case meta.StatusTransient:
			meta.Pause(spin) // rollback in flight
		default:
			return false // Active: attempt never went pending
		}
	}
}

func (t *OULTxn) awaitFinal() {
	for spin := 0; !t.status.Load().Final(); spin++ {
		meta.Pause(spin)
	}
}

// AbandonAttempt implements meta.Txn.
func (t *OULTxn) AbandonAttempt() {
	t.abort(t.ref(), meta.CauseNone)
	t.awaitFinal()
}

// Cleanup implements meta.Txn: clear this life's reader slots (the
// cleaner role; §6 keeps metadata until the transaction is reachable).
// Only called on committed attempts. The lock words keep the committed
// reference, which is claimed like RefNil: a word that went back to
// RefNil could pass the re-check of a reader that saw RefNil before
// this life acquired it, with the value from before this life's write
// in hand (DESIGN §3).
func (t *OULTxn) Cleanup() {
	self := t.ref()
	for i := range t.readRefs {
		rr := &t.readRefs[i]
		rr.arr.Slots[rr.idx].CAS(self, meta.RefNil)
	}
	t.readRefs = t.readRefs[:0]
}
