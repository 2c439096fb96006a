// Package undolog implements the UndoLog baseline of the paper (§8):
// an encounter-time locking, write-through STM in the style of
// TinySTM/Ettersoft write-through designs, in four flavors — visible or
// invisible readers, each unordered or ordered. The ordered variants
// use the paper's age-based contention policy (always favor the
// transaction with the lower age); commit is gated on the predefined
// commit order.
//
// Unlike OUL (internal/core), UndoLog is not cooperative: a reader
// never consumes a live writer's value knowingly — it waits for (or
// aborts) the writer. Rollback is victim-performed: aborters only set
// a doom flag and the victim restores its undo log when it next runs,
// which is the classical design and one reason OUL outperforms it.
//
// Owner words and reader slots hold generation-stamped meta.Refs (see
// internal/meta/ref.go): descriptors are recycled through per-worker
// freelists, and a stale reference to a previous life must be exactly
// as inert as a pointer to a finalized descriptor used to be — in
// particular, an invisible reader that recorded the owner word must
// fail validation when the same descriptor re-acquires the lock in a
// later life, which only a generation-stamped comparison can detect.
package undolog

import (
	"sync/atomic"

	"github.com/orderedstm/ostm/internal/meta"
)

// ulLock is one lock-table record: the owning writer's reference (it
// remains set, naming a finalized life, after commit/abort — staleness
// or the owner's status disambiguates), a version counter bumped on
// every release and rollback (invisible readers validate against it),
// and lazily allocated visible-reader slots.
type ulLock struct {
	owner   meta.RefWord
	version atomic.Uint64
	readers meta.LazyRefSlots
}

// Engine implements meta.Engine for the four UndoLog variants.
type Engine struct {
	cfg     meta.EngineConfig
	locks   *meta.Table[ulLock]
	visible bool
	ordered bool
	descs   meta.Registry[Txn]
	depot   meta.Depot[Txn]
}

// New returns a fresh UndoLog engine for one run.
func New(cfg meta.EngineConfig, visible, ordered bool) *Engine {
	cfg = cfg.Normalize()
	return &Engine{cfg: cfg, locks: meta.NewTable[ulLock](cfg.TableBits), visible: visible, ordered: ordered}
}

// Name implements meta.Engine.
func (e *Engine) Name() string {
	n := "UndoLog-invis"
	if e.visible {
		n = "UndoLog-vis"
	}
	if e.ordered {
		return "Ordered-" + n
	}
	return n
}

// Mode implements meta.Engine.
func (e *Engine) Mode() meta.Mode {
	if e.ordered {
		return meta.ModeBlocked
	}
	return meta.ModeUnordered
}

// Stats implements meta.Engine.
func (e *Engine) Stats() *meta.Stats { return e.cfg.Stats }

// alloc registers a brand-new descriptor.
func (e *Engine) alloc(cell *meta.StatsCell) *Txn {
	t := &Txn{eng: e, cell: cell}
	t.idx = e.descs.Add(t)
	return t
}

// at resolves a descriptor reference (any generation).
func (e *Engine) at(r meta.Ref) *Txn { return e.descs.At(r.Idx()) }

// NewTxn implements meta.Engine: a fresh, never-recycled descriptor.
func (e *Engine) NewTxn(age uint64) meta.Txn {
	t := e.alloc(e.cfg.Stats.DefaultCell())
	t.age.Store(age)
	return t
}

// NewPool implements meta.PoolEngine.
func (e *Engine) NewPool() meta.TxnPool {
	return &pool{eng: e, cache: meta.NewCache(&e.depot), cell: e.cfg.Stats.NewCell()}
}

// pool recycles finalized descriptors for one run-loop goroutine,
// reusing the writes/reads/readRefs backing arrays. UndoLog descriptors
// are never read through after finalization (rollback is
// victim-performed and undo logs are private), so no pinning is needed.
type pool struct {
	eng   *Engine
	cache *meta.Cache[Txn]
	cell  *meta.StatsCell
}

// NewTxn implements meta.TxnPool.
func (p *pool) NewTxn(age uint64) meta.Txn {
	t := p.cache.Get()
	if t == nil {
		t = p.eng.alloc(p.cell)
		t.age.Store(age)
		return t
	}
	t.writes = t.writes[:0]
	t.reads = t.reads[:0]
	t.readRefs = t.readRefs[:0]
	t.doomed.Store(false)
	t.age.Store(age)
	t.status.Renew()
	return t
}

// Retire implements meta.TxnPool: scrub this life's reader-slot
// registrations (Cleanup is not called for blocked/unordered modes)
// and cache the descriptor.
func (p *pool) Retire(x meta.Txn) {
	t, ok := x.(*Txn)
	if !ok || t.eng != p.eng || !t.status.Load().Final() {
		return
	}
	self := t.ref()
	for i := range t.readRefs {
		rr := &t.readRefs[i]
		rr.arr.Slots[rr.idx].CAS(self, meta.RefNil)
	}
	p.cache.Put(t)
}

type ulWrite struct {
	v    *meta.Var
	lock *ulLock
	old  uint64
}

type ulRead struct {
	lock  *ulLock
	owner meta.Ref
	ver   uint64
}

type readRef struct {
	arr *meta.RefSlotArray
	idx int
}

// Txn is one UndoLog transaction attempt descriptor (one life per
// attempt; see meta.StatusWord).
type Txn struct {
	eng  *Engine
	cell *meta.StatsCell // set once at allocation
	idx  uint32

	age    atomic.Uint64   // atomic: stale-ref observers race renewal
	status meta.StatusWord // Active → Committed | Aborted
	doomed atomic.Bool

	writes   []ulWrite
	reads    []ulRead  // invisible readers
	readRefs []readRef // visible readers
}

// ref returns the reference for this descriptor's current life.
func (t *Txn) ref() meta.Ref { return meta.MakeRef(t.idx, t.status.Gen()) }

// Age implements meta.Txn.
func (t *Txn) Age() uint64 { return t.age.Load() }

// Doomed implements meta.Txn.
func (t *Txn) Doomed() bool { return t.doomed.Load() }

// doom marks a victim for abort; the victim rolls itself back at its
// next operation (or wait wake-up). Counts the cause once.
func (t *Txn) doom(c meta.Cause) {
	if t.doomed.CompareAndSwap(false, true) {
		t.cell.Abort(c)
	}
	t.eng.cfg.Order.Kick()
}

func (t *Txn) checkDoom() {
	if t.doomed.Load() {
		t.rollback()
		meta.PanicAbort(meta.CauseNone)
	}
}

func (t *Txn) selfAbort(c meta.Cause) {
	if t.doomed.CompareAndSwap(false, true) {
		t.cell.Abort(c)
	}
	t.rollback()
	meta.PanicAbort(c)
}

// holder resolves an owner-word reference to a live same-life owner,
// or nil when the word is empty, stale (a past life) or final — all of
// which mean the record is claimable.
func (e *Engine) holder(r meta.Ref) *Txn {
	if !r.IsTxn() {
		return nil
	}
	o := e.at(r)
	if life := o.status.LoadLife(); r.SameLife(life) && life.Status() == meta.StatusActive {
		return o
	}
	return nil
}

// rollback restores the undo log, bumps versions so invisible readers
// detect the flicker, and finalizes the attempt. Only ever run by the
// victim's own goroutine, so no descriptor locking is needed.
func (t *Txn) rollback() {
	if t.status.Load().Final() {
		return
	}
	self := t.ref()
	for i := len(t.writes) - 1; i >= 0; i-- {
		e := &t.writes[i]
		if e.lock.owner.Load() == self {
			e.v.Store(e.old)
			e.lock.version.Add(1)
		}
	}
	t.status.Store(meta.StatusAborted)
	t.eng.cfg.Order.Kick()
}

// Read dispatches to the visible or invisible protocol.
func (t *Txn) Read(v *meta.Var) uint64 {
	if t.eng.visible {
		return t.readVisible(v)
	}
	return t.readInvisible(v)
}

// readInvisible loads the value and records (owner, version) for
// commit-time validation. A live foreign owner is handled by the
// contention policy: ordered favors the lower age (abort a higher-age
// owner, wait out a lower-age one); unordered retries a bounded number
// of times and then backs off by self-aborting, matching §8.
func (t *Txn) readInvisible(v *meta.Var) uint64 {
	lk := t.eng.locks.Of(v)
	self := t.ref()
	for spin := 0; ; spin++ {
		t.checkDoom()
		oref := lk.owner.Load()
		ver := lk.version.Load()
		if o := t.eng.holder(oref); o != nil && oref != self {
			if t.eng.ordered {
				if o.age.Load() > t.age.Load() {
					o.doom(meta.CauseRAW)
				}
				meta.Pause(spin) // lower age: it commits before us; wait
				continue
			}
			if spin >= t.eng.cfg.SpinBudget {
				t.selfAbort(meta.CauseBusy)
			}
			meta.Pause(spin)
			continue
		}
		val := v.Load()
		if lk.owner.Load() != oref || lk.version.Load() != ver {
			meta.Pause(spin)
			continue // torn snapshot
		}
		t.reads = append(t.reads, ulRead{lock: lk, owner: oref, ver: ver})
		return val
	}
}

// readVisible registers in the lock's reader slots, loads, and then
// re-checks the owner word; the writer/reader conflict is resolved at
// write time (writers abort conflicting visible readers), so no
// commit-time validation is needed. The load precedes the re-check: a
// higher-age writer that acquires the record afterwards spares this
// lower-age reader, so only the re-check can catch a value it stored
// before the load.
func (t *Txn) readVisible(v *meta.Var) uint64 {
	lk := t.eng.locks.Of(v)
	self := t.ref()
	for spin := 0; ; spin++ {
		t.checkDoom()
		oref := lk.owner.Load()
		if o := t.eng.holder(oref); o != nil && oref != self {
			if t.eng.ordered {
				if o.age.Load() > t.age.Load() {
					o.doom(meta.CauseRAW)
				}
				meta.Pause(spin) // lower-age writer: wait for its commit
				continue
			}
			if spin >= t.eng.cfg.SpinBudget {
				t.selfAbort(meta.CauseBusy)
			}
			meta.Pause(spin)
			continue
		}
		if !t.register(lk) {
			t.rollback()
			meta.PanicAbort(meta.CauseNone)
		}
		val := v.Load()
		if lk.owner.Load() != oref {
			meta.Pause(spin)
			continue // writer slipped in while we registered or loaded
		}
		return val
	}
}

// slotFree reports whether a reader-slot occupant reference is dead
// (stale or final).
func (t *Txn) slotFree(cur meta.Ref) bool {
	if !cur.IsTxn() {
		return cur == meta.RefNil
	}
	r := t.eng.at(cur)
	life := r.status.LoadLife()
	return !cur.SameLife(life) || life.Status().Final()
}

// register claims a visible-reader slot (free = empty, stale or final
// occupant). If the array stays full past the spin budget, the reader
// dooms the highest-age occupant above its own age so the bounded
// array can never deadlock the commit frontier. Returns false if
// doomed while waiting for a slot.
func (t *Txn) register(lk *ulLock) bool {
	arr := lk.readers.Get(t.eng.cfg.MaxReaders)
	self := t.ref()
	for spin := 0; ; spin++ {
		for i := range arr.Slots {
			cur := arr.Slots[i].Load()
			if cur == self {
				return true
			}
			if cur == meta.RefNil || t.slotFree(cur) {
				if arr.Slots[i].CAS(cur, self) {
					t.readRefs = append(t.readRefs, readRef{arr: arr, idx: i})
					return true
				}
			}
		}
		if t.doomed.Load() {
			return false
		}
		if spin > 0 && spin%t.eng.cfg.SpinBudget == 0 {
			var victim *Txn
			var victimAge uint64
			myAge := t.age.Load()
			for i := range arr.Slots {
				cur := arr.Slots[i].Load()
				if !cur.IsTxn() || cur == self {
					continue
				}
				r := t.eng.at(cur)
				life := r.status.LoadLife()
				if !cur.SameLife(life) || life.Status().Final() {
					continue
				}
				if a := r.age.Load(); a > myAge && (victim == nil || a > victimAge) {
					victim, victimAge = r, a
				}
			}
			if victim != nil {
				victim.doom(meta.CauseBusy)
			}
		}
		meta.Pause(spin)
	}
}

// Write acquires the write lock encounter-time, saves the pre-image in
// the undo log and writes through. Write-write conflicts follow the
// age-based policy when ordered (favor lower age) and bounded-spin
// self-abort when unordered. Visible readers conflicting with the
// write are aborted (all of them when unordered — writer priority;
// only higher-age ones when ordered, since a lower-age reader
// serializes before this write under ACO).
func (t *Txn) Write(v *meta.Var, x uint64) {
	lk := t.eng.locks.Of(v)
	self := t.ref()
	for spin := 0; ; spin++ {
		t.checkDoom()
		oref := lk.owner.Load()
		if oref == self {
			t.appendUndo(v, lk)
			t.killReaders(lk)
			v.Store(x)
			return
		}
		if o := t.eng.holder(oref); o != nil {
			if t.eng.ordered {
				if o.age.Load() > t.age.Load() {
					o.doom(meta.CauseWAW)
				}
				meta.Pause(spin) // wait for victim rollback / lower-age commit
				continue
			}
			if spin >= t.eng.cfg.SpinBudget {
				t.selfAbort(meta.CauseWAW)
			}
			meta.Pause(spin)
			continue
		}
		if !lk.owner.CAS(oref, self) {
			meta.Pause(spin)
			continue
		}
		t.appendUndo(v, lk)
		t.killReaders(lk)
		v.Store(x)
		return
	}
}

func (t *Txn) appendUndo(v *meta.Var, lk *ulLock) {
	for i := range t.writes {
		if t.writes[i].v == v {
			return
		}
	}
	t.writes = append(t.writes, ulWrite{v: v, lock: lk, old: v.Load()})
}

// killReaders aborts visible readers that conflict with a write to lk.
// Stale slot registrations (past lives) are skipped.
func (t *Txn) killReaders(lk *ulLock) {
	if !t.eng.visible {
		return
	}
	arr := lk.readers.Peek()
	if arr == nil {
		return
	}
	self := t.ref()
	myAge := t.age.Load()
	for i := range arr.Slots {
		ref := arr.Slots[i].Load()
		if !ref.IsTxn() || ref == self {
			continue
		}
		r := t.eng.at(ref)
		life := r.status.LoadLife()
		if !ref.SameLife(life) || life.Status().Final() {
			continue
		}
		if t.eng.ordered && r.age.Load() < myAge {
			continue // its read serializes before us under ACO
		}
		r.doom(meta.CauseKilledReader)
	}
}

// ReadSetValid implements meta.Revalidator (invisible readers only;
// visible readers cannot observe stale state undetected).
func (t *Txn) ReadSetValid() bool {
	if t.eng.visible {
		return !t.doomed.Load()
	}
	for i := range t.reads {
		e := &t.reads[i]
		if e.lock.version.Load() != e.ver || e.lock.owner.Load() != e.owner {
			return false
		}
	}
	return true
}

// TryCommit validates (invisible readers), releases the write locks by
// bumping versions and flipping the status, and — when ordered — does
// all of that only at the transaction's commit turn.
func (t *Txn) TryCommit() bool {
	if t.eng.ordered {
		if !t.eng.cfg.Order.WaitTurn(t.age.Load(), t.Doomed) {
			t.rollback()
			return false
		}
	}
	if t.doomed.Load() {
		t.rollback()
		return false
	}
	if !t.eng.visible {
		self := t.ref()
		for i := range t.reads {
			e := &t.reads[i]
			if e.lock.version.Load() != e.ver || (e.lock.owner.Load() != e.owner && e.lock.owner.Load() != self) {
				if t.eng.ordered {
					// Age-based contention policy at commit: any live
					// higher-age writer squatting on our read-set can
					// never commit before us (the order forbids it), so
					// it must be doomed or our turn never validates.
					myAge := t.age.Load()
					for j := range t.reads {
						o := t.eng.holder(t.reads[j].lock.owner.Load())
						if o != nil && o != t && o.age.Load() > myAge {
							o.doom(meta.CauseRAW)
						}
					}
				}
				t.cell.Abort(meta.CauseValidation)
				t.doomed.Store(true)
				t.rollback()
				return false
			}
		}
	}
	for i := range t.writes {
		t.writes[i].lock.version.Add(1)
	}
	t.status.Store(meta.StatusCommitted)
	if t.eng.ordered {
		t.eng.cfg.Order.Complete(t.age.Load())
	}
	return true
}

// Commit implements meta.Txn.
func (t *Txn) Commit() bool { return true }

// Cleanup implements meta.Txn: clear stale back-references. Backing
// arrays are kept for the descriptor's next life.
func (t *Txn) Cleanup() {
	self := t.ref()
	for i := range t.readRefs {
		rr := &t.readRefs[i]
		rr.arr.Slots[rr.idx].CAS(self, meta.RefNil)
	}
	for i := range t.writes {
		t.writes[i].lock.owner.CAS(self, meta.RefNil)
	}
	t.readRefs = t.readRefs[:0]
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
}

// AbandonAttempt implements meta.Txn: victim-performed rollback.
func (t *Txn) AbandonAttempt() {
	if !t.status.Load().Final() {
		if t.doomed.CompareAndSwap(false, true) {
			t.cell.Abort(meta.CauseNone)
		}
		t.rollback()
	}
}
