package core

import (
	"sync/atomic"

	"github.com/orderedstm/ostm/internal/meta"
)

// owbLock is one lock-table record for OWB: a version counter plus a
// reference to the exposing writer (nil when unlocked). The version is
// incremented once per expose of the record; it never moves backwards,
// including on abort (readers of a reverted value are killed through
// the dependency list, not through versions).
type owbLock struct {
	version atomic.Uint64
	writer  atomic.Pointer[OWBTxn]
}

// OWBEngine implements the Ordered Write Back algorithm (§5).
type OWBEngine struct {
	cfg   meta.EngineConfig
	locks *meta.Table[owbLock]
	depot meta.Depot[OWBTxn]
}

// NewOWB returns a fresh OWB engine for one run.
func NewOWB(cfg meta.EngineConfig) *OWBEngine {
	cfg = cfg.Normalize()
	return &OWBEngine{cfg: cfg, locks: meta.NewTable[owbLock](cfg.TableBits)}
}

// Name implements meta.Engine.
func (e *OWBEngine) Name() string { return "OWB" }

// Mode implements meta.Engine.
func (e *OWBEngine) Mode() meta.Mode { return meta.ModeCooperative }

// Stats implements meta.Engine.
func (e *OWBEngine) Stats() *meta.Stats { return e.cfg.Stats }

// NewTxn implements meta.Engine: a fresh, never-recycled descriptor
// (tests and non-pooled paths; the run-loop allocates through NewPool).
func (e *OWBEngine) NewTxn(age uint64) meta.Txn {
	t := &OWBTxn{eng: e, cell: e.cfg.Stats.DefaultCell()}
	t.age.Store(age)
	return t
}

// NewPool implements meta.PoolEngine: a worker-local freelist backed by
// the engine-wide depot, with its own stats cell.
//
// OWB needs no generation-stamped lock words: its lock claims CAS only
// from nil (conflicting holders are aborted and release their own
// locks), and commit, abort and cleanup all withdraw the descriptor's
// pointer from every lock word before the attempt finalizes — so a
// pointer in a word always names the life that published it. The one
// cross-life hazard is the dependency double-check in Read, which
// compares packed (generation, status) snapshots instead of bare
// statuses (see the forwarding path).
func (e *OWBEngine) NewPool() meta.TxnPool {
	return &owbPool{eng: e, cache: meta.NewCache(&e.depot), cell: e.cfg.Stats.NewCell()}
}

// owbPool recycles finalized descriptors for one run-loop goroutine,
// reusing the reads/writes backing arrays.
type owbPool struct {
	eng   *OWBEngine
	cache *meta.Cache[OWBTxn]
	cell  *meta.StatsCell
}

// NewTxn implements meta.TxnPool.
func (p *owbPool) NewTxn(age uint64) meta.Txn {
	t := p.cache.Get()
	if t == nil {
		t = &OWBTxn{eng: p.eng, cell: p.cell}
		t.age.Store(age)
		return t
	}
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.deps.Reset()
	t.exposed = false
	t.doomed.Store(false)
	t.age.Store(age)
	t.status.Renew()
	return t
}

// Retire implements meta.TxnPool.
func (p *owbPool) Retire(x meta.Txn) {
	t, ok := x.(*OWBTxn)
	if !ok || t.eng != p.eng || !t.status.Load().Final() {
		return
	}
	p.cache.Put(t)
}

type owbReadEntry struct {
	v    *meta.Var
	lock *owbLock
	ver  uint64
}

type owbWriteEntry struct {
	v    *meta.Var
	lock *owbLock
	val  uint64 // new value before expose; swapped with the old value at expose
}

// OWBTxn is one OWB transaction attempt.
//
// Lifecycle: Active (live) → [TryCommit: Transient → Active+exposed]
// → [Commit: Transient → Committed], with Aborted reachable from any
// non-final state. While exposed, the attempt holds the versioned
// locks of its write-set, its new values are published in shared
// memory, and higher-age readers that consume them register in deps.
type OWBTxn struct {
	eng     *OWBEngine
	cell    *meta.StatsCell // set once at allocation
	age     atomic.Uint64   // atomic: stale observers race pool renewal
	status  meta.StatusWord
	doomed  atomic.Bool
	exposed bool // written only while the descriptor is owned (Transient)

	reads  []owbReadEntry
	writes []owbWriteEntry
	deps   meta.DepList[*OWBTxn]
}

// Age implements meta.Txn.
func (t *OWBTxn) Age() uint64 { return t.age.Load() }

// Doomed implements meta.Txn.
func (t *OWBTxn) Doomed() bool { return t.doomed.Load() }

func (t *OWBTxn) checkDoom() {
	if t.doomed.Load() {
		meta.PanicAbort(meta.CauseNone) // cause was counted by the doom setter
	}
}

// selfAbort finalizes the attempt from its own goroutine and unwinds.
func (t *OWBTxn) selfAbort(c meta.Cause) {
	if t.doomed.CompareAndSwap(false, true) {
		t.cell.Abort(c)
	}
	if t.status.CAS(meta.StatusActive, meta.StatusTransient) {
		t.finalizeAbort()
	}
	meta.PanicAbort(c)
}

// abort dooms another attempt (or this one, from commit paths). It
// never blocks: if the victim is inside a critical section the victim
// finalizes its own abort on exit. Returns true if this call was the
// one that doomed the victim.
func (t *OWBTxn) abort(c meta.Cause) bool {
	if t.status.Load().Final() {
		return false // already committed or aborted (Algorithm 1 lines 25–26)
	}
	first := t.doomed.CompareAndSwap(false, true)
	if first {
		t.cell.Abort(c)
	}
	if t.status.CAS(meta.StatusActive, meta.StatusTransient) {
		t.finalizeAbort()
	}
	return first
}

// finalizeAbort runs with the descriptor owned (status Transient):
// cascade to dependents, revert exposed values, release locks.
func (t *OWBTxn) finalizeAbort() {
	t.deps.ForEach(func(d *OWBTxn) { d.abort(meta.CauseCascade) })
	if t.exposed {
		t.revertExposed()
		t.exposed = false
	}
	t.status.Store(meta.StatusAborted)
	t.eng.cfg.Order.Kick()
}

// revertExposed restores the pre-expose values (they were swapped into
// the write entries at expose time) and releases the locks. Values are
// restored for every entry before any lock is released: several
// variables may alias to one lock record, and releasing at the first
// entry would orphan the rest. Versions deliberately stay bumped; see
// owbLock.
func (t *OWBTxn) revertExposed() {
	for i := range t.writes {
		e := &t.writes[i]
		if e.lock.writer.Load() == t {
			old := e.v.Load()
			e.v.Store(e.val)
			e.val = old
		}
	}
	for i := range t.writes {
		t.writes[i].lock.writer.CompareAndSwap(t, nil)
	}
}

// Read implements Algorithm 1 lines 1–20 with the forwarding protocol:
// a value exposed by a lower-age writer may be consumed after
// registering in the writer's dependency list (W1→R2); a higher-age
// exposing writer is aborted (W2→R1).
func (t *OWBTxn) Read(v *meta.Var) uint64 {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].v == v {
			return t.writes[i].val // read-your-own-write from the buffer
		}
	}
	lk := t.eng.locks.Of(v)
	for spin := 0; ; spin++ {
		t.checkDoom()
		ver := lk.version.Load()
		w := lk.writer.Load()
		if w != nil && w != t {
			if w.age.Load() > t.age.Load() {
				// W2→R1: the speculative writer has a higher age; abort
				// it and wait for the lock to clear.
				w.abort(meta.CauseRAW)
				meta.Pause(spin)
				continue
			}
			// W1→R2: wait out the writer's critical section, then
			// register as a dependent before consuming its value.
			wlife := w.status.LoadLife()
			switch wlife.Status() {
			case meta.StatusTransient:
				meta.Pause(spin)
				continue
			case meta.StatusAborted:
				meta.Pause(spin)
				continue // lock will clear; re-read
			case meta.StatusCommitted:
				// value is final; no dependency needed
			default: // Active (exposed)
				w.deps.Push(t)
				// Double check after registration (Algorithm 1 line 12):
				// the writer may have aborted while we registered. Wait
				// out a Transient window (it may be the writer's own
				// commit); a final Aborted state kills us, and so does a
				// generation change — the life we registered against is
				// over and its outcome (and our dependency node) can no
				// longer be trusted, so treat it as a cascade.
				for dspin := 0; ; dspin++ {
					l := w.status.LoadLife()
					if l.Gen() != wlife.Gen() {
						t.selfAbort(meta.CauseCascade)
					}
					if l.Status() == meta.StatusTransient {
						meta.Pause(dspin)
						continue
					}
					if l.Status() == meta.StatusAborted {
						t.selfAbort(meta.CauseCascade)
					}
					break
				}
			}
		}
		val := v.Load()
		if lk.version.Load() != ver || lk.writer.Load() != w {
			meta.Pause(spin)
			continue // torn (version, writer, value) snapshot; retry
		}
		// Keep the read-set consistent during execution
		// (Algorithm 1 line 17).
		if !t.validateReads() {
			t.selfAbort(meta.CauseValidation)
		}
		t.reads = append(t.reads, owbReadEntry{v: v, lock: lk, ver: ver})
		return val
	}
}

// Write buffers the update (Algorithm 1 lines 21–23).
func (t *OWBTxn) Write(v *meta.Var, x uint64) {
	t.checkDoom()
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].v == v {
			t.writes[i].val = x
			return
		}
	}
	t.writes = append(t.writes, owbWriteEntry{v: v, lock: t.eng.locks.Of(v), val: x})
}

// validateReads is the read-set validation (Algorithm 1 lines 44–52).
// The paper exempts any entry whose lock is currently held; taken
// literally that can mask a committed overwrite behind a higher-age
// holder, so we only exempt locks held by this transaction itself
// (whose own expose bumped the version by exactly one). See DESIGN.md.
func (t *OWBTxn) validateReads() bool {
	for i := range t.reads {
		e := &t.reads[i]
		ver := e.lock.version.Load()
		if ver == e.ver {
			continue
		}
		if e.lock.writer.Load() == t && ver == e.ver+1 {
			continue // bumped by our own expose
		}
		return false
	}
	return true
}

// lockSeen reports whether writes[0:i] already covers writes[i].lock
// (several buffered variables can alias to one lock record; the record
// is locked and version-bumped once).
func (t *OWBTxn) lockSeen(i int) bool {
	for j := 0; j < i; j++ {
		if t.writes[j].lock == t.writes[i].lock {
			return true
		}
	}
	return false
}

// TryCommit is the expose step (Algorithm 1 lines 62–94): validate the
// read-set, acquire the write-set locks (resolving lock conflicts by
// age), publish the buffered values, and re-validate reads that the
// transaction itself holds locked.
func (t *OWBTxn) TryCommit() bool {
	if !t.status.CAS(meta.StatusActive, meta.StatusTransient) {
		t.awaitFinal()
		return false
	}
	if t.doomed.Load() {
		t.finalizeAbort()
		return false
	}
	if !t.validateReads() {
		t.cell.Abort(meta.CauseValidation)
		t.doomed.Store(true)
		t.finalizeAbort()
		return false
	}
	// Acquire write-set locks.
	for i := range t.writes {
		e := &t.writes[i]
		if t.lockSeen(i) {
			continue
		}
		for spin := 0; ; spin++ {
			if t.doomed.Load() {
				t.releaseLocks(i)
				t.finalizeAbort()
				return false
			}
			w := e.lock.writer.Load()
			if w == t {
				break
			}
			if w != nil {
				if t.age.Load() < w.age.Load() {
					// W2→W1: we have priority; abort the holder and wait
					// for the lock to clear.
					w.abort(meta.CauseLockedWrite)
					meta.Pause(spin)
					continue
				}
				// W1→W2: a lower-age transaction holds the lock; abort
				// ourselves (write after write).
				t.cell.Abort(meta.CauseWAW)
				t.doomed.Store(true)
				t.releaseLocks(i)
				t.finalizeAbort()
				return false
			}
			if e.lock.writer.CompareAndSwap(nil, t) {
				break
			}
			meta.Pause(spin)
		}
	}
	// Publish: bump each distinct lock version once, swap values so the
	// entry retains the pre-expose value for rollback.
	for i := range t.writes {
		e := &t.writes[i]
		if !t.lockSeen(i) {
			e.lock.version.Add(1)
		}
		old := e.v.Load()
		e.v.Store(e.val)
		e.val = old
	}
	t.exposed = true
	// Validate reads overlapping our own write-set now that they are
	// locked (Algorithm 1 lines 53–61): their version must be exactly
	// one past the read version, otherwise a concurrent expose/commit
	// slipped in between the read and our lock acquisition.
	for i := range t.reads {
		e := &t.reads[i]
		if e.lock.writer.Load() == t && e.lock.version.Load() != e.ver+1 {
			t.cell.Abort(meta.CauseValidation)
			t.doomed.Store(true)
			t.finalizeAbort()
			return false
		}
	}
	if t.doomed.Load() {
		t.finalizeAbort()
		return false
	}
	t.status.Store(meta.StatusActive) // transaction is now exposed
	return true
}

// releaseLocks releases locks acquired for writes[0:n] during a failed
// acquisition pass (nothing was published yet).
func (t *OWBTxn) releaseLocks(n int) {
	for i := 0; i < n; i++ {
		t.writes[i].lock.writer.CompareAndSwap(t, nil)
	}
}

// Commit finalizes a reachable exposed transaction (Algorithm 1 lines
// 95–108): re-validate the read-set, release locks, become committed.
// Called by the executor's validator role once every lower age has
// committed; its Order.Complete right after is what wakes the waiters.
func (t *OWBTxn) Commit() bool {
	for spin := 0; ; spin++ {
		s := t.status.Load()
		switch s {
		case meta.StatusAborted:
			return false
		case meta.StatusCommitted:
			return true
		case meta.StatusTransient:
			meta.Pause(spin) // an aborter owns the descriptor; wait it out
			continue
		}
		if t.status.CAS(meta.StatusActive, meta.StatusTransient) {
			break
		}
	}
	if t.doomed.Load() {
		t.finalizeAbort()
		return false
	}
	if !t.validateReads() {
		t.cell.Abort(meta.CauseValidation)
		t.doomed.Store(true)
		t.finalizeAbort()
		return false
	}
	for i := range t.writes {
		t.writes[i].lock.writer.CompareAndSwap(t, nil)
	}
	t.status.Store(meta.StatusCommitted)
	return true
}

// awaitFinal spins until the attempt reaches a final state (used when
// an operation finds the descriptor claimed by an aborter).
func (t *OWBTxn) awaitFinal() {
	for spin := 0; !t.status.Load().Final(); spin++ {
		meta.Pause(spin)
	}
}

// AbandonAttempt implements meta.Txn: make sure the attempt is rolled
// back and final after an abort unwound the body.
func (t *OWBTxn) AbandonAttempt() {
	if !t.status.Load().Final() {
		if t.doomed.CompareAndSwap(false, true) {
			t.cell.Abort(meta.CauseNone)
		}
		if t.status.CAS(meta.StatusActive, meta.StatusTransient) {
			t.finalizeAbort()
		}
	}
	t.awaitFinal()
}

// Cleanup implements meta.Txn (the cleaner role): drop metadata held by
// a committed, reachable transaction. Backing arrays are kept for the
// descriptor's next life.
func (t *OWBTxn) Cleanup() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.deps.Reset()
}
