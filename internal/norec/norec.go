// Package norec implements NOrec (Dalessandro, Spear, Scott, PPoPP
// 2010) in its unordered form and the ordered variant used as a
// baseline in the paper (§8).
//
// NOrec has no ownership records at all: a single global sequence lock
// serializes commits and readers revalidate their read-set *by value*
// whenever the global clock moves. Value-based validation is what lets
// NOrec win on Labyrinth-style workloads (two transactions writing the
// same value to the same location do not conflict) and what removes
// lock-aliasing false conflicts entirely.
package norec

import (
	"sync/atomic"

	"github.com/orderedstm/ostm/internal/meta"
)

// Engine implements meta.Engine for NOrec and Ordered NOrec.
type Engine struct {
	cfg     meta.EngineConfig
	seq     atomic.Uint64 // global sequence lock: odd = committer active
	ordered bool
	depot   meta.Depot[Txn]
}

// New returns a fresh unordered NOrec engine for one run.
func New(cfg meta.EngineConfig) *Engine {
	return &Engine{cfg: cfg.Normalize()}
}

// NewOrdered returns a fresh Ordered NOrec engine for one run.
func NewOrdered(cfg meta.EngineConfig) *Engine {
	e := New(cfg)
	e.ordered = true
	return e
}

// Name implements meta.Engine.
func (e *Engine) Name() string {
	if e.ordered {
		return "Ordered-NOrec"
	}
	return "NOrec"
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

// waitEven spins until the sequence lock is even (no committer) and
// returns it.
func (e *Engine) waitEven() uint64 {
	for spin := 0; ; spin++ {
		s := e.seq.Load()
		if s&1 == 0 {
			return s
		}
		meta.Pause(spin)
	}
}

// NewTxn implements meta.Engine.
func (e *Engine) NewTxn(age uint64) meta.Txn {
	return &Txn{eng: e, cell: e.cfg.Stats.DefaultCell(), age: age, snap: e.waitEven()}
}

// NewPool implements meta.PoolEngine. NOrec has no shared descriptor
// references at all (one global sequence lock, value-based
// validation), so the pool just reuses the reads/writes backing arrays
// and resamples the snapshot.
func (e *Engine) NewPool() meta.TxnPool {
	return &pool{eng: e, cache: meta.NewCache(&e.depot), cell: e.cfg.Stats.NewCell()}
}

type pool struct {
	eng   *Engine
	cache *meta.Cache[Txn]
	cell  *meta.StatsCell
}

// NewTxn implements meta.TxnPool.
func (p *pool) NewTxn(age uint64) meta.Txn {
	t := p.cache.Get()
	if t == nil {
		return &Txn{eng: p.eng, cell: p.cell, age: age, snap: p.eng.waitEven()}
	}
	t.age = age
	t.snap = p.eng.waitEven()
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	return t
}

// Retire implements meta.TxnPool.
func (p *pool) Retire(x meta.Txn) {
	if t, ok := x.(*Txn); ok && t.eng == p.eng {
		p.cache.Put(t)
	}
}

type readEntry struct {
	v   *meta.Var
	val uint64
}

type writeEntry struct {
	v   *meta.Var
	val uint64
}

// Txn is one NOrec transaction attempt.
type Txn struct {
	eng    *Engine
	cell   *meta.StatsCell
	age    uint64
	snap   uint64
	reads  []readEntry
	writes []writeEntry
}

// Age implements meta.Txn.
func (t *Txn) Age() uint64 { return t.age }

// Doomed implements meta.Txn: NOrec has no cross-transaction aborts.
func (t *Txn) Doomed() bool { return false }

// revalidate waits for a quiescent global clock and checks every read
// still returns the recorded value; it reports the new snapshot.
func (t *Txn) revalidate() (uint64, bool) {
	for {
		s := t.eng.waitEven()
		for i := range t.reads {
			if t.reads[i].v.Load() != t.reads[i].val {
				return 0, false
			}
		}
		if t.eng.seq.Load() == s {
			return s, true
		}
	}
}

// ReadSetValid implements meta.Revalidator for the sandbox.
func (t *Txn) ReadSetValid() bool {
	_, ok := t.revalidate()
	return ok
}

// Read implements the NOrec read protocol: load, then extend the
// snapshot by value-revalidating whenever the global clock moved.
func (t *Txn) Read(v *meta.Var) uint64 {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].v == v {
			return t.writes[i].val
		}
	}
	val := v.Load()
	for t.eng.seq.Load() != t.snap {
		snap, ok := t.revalidate()
		if !ok {
			t.cell.Abort(meta.CauseValidation)
			meta.PanicAbort(meta.CauseValidation)
		}
		t.snap = snap
		val = v.Load()
	}
	t.reads = append(t.reads, readEntry{v: v, val: val})
	return val
}

// Write buffers the update.
func (t *Txn) Write(v *meta.Var, x uint64) {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].v == v {
			t.writes[i].val = x
			return
		}
	}
	t.writes = append(t.writes, writeEntry{v: v, val: x})
}

// TryCommit performs the NOrec commit: acquire the global sequence
// lock at the snapshot value (revalidating by value on contention),
// write back, release. The ordered variant first waits for its commit
// turn; at the turn no other committer exists, so a failed validation
// is repaired by one re-execution.
func (t *Txn) TryCommit() bool {
	if t.eng.ordered {
		if !t.eng.cfg.Order.WaitTurn(t.age, nil) {
			// The order halted (the run stopped on a fault): our turn
			// will never come, so abandon instead of parking forever.
			t.cell.Abort(meta.CauseOrder)
			return false
		}
	}
	ok := t.commitInner()
	if ok && t.eng.ordered {
		t.eng.cfg.Order.Complete(t.age)
	}
	return ok
}

func (t *Txn) commitInner() bool {
	if len(t.writes) == 0 {
		// Read-only: the snapshot is already consistent, which is all
		// plain NOrec asks. Under a predefined order age a must observe
		// exactly the state after age a-1, so at its turn the reads are
		// revalidated by value; a stale one is repaired by re-execution.
		if t.eng.ordered {
			if _, ok := t.revalidate(); !ok {
				t.cell.Abort(meta.CauseValidation)
				return false
			}
		}
		return true
	}
	for !t.eng.seq.CompareAndSwap(t.snap, t.snap+1) {
		snap, ok := t.revalidate()
		if !ok {
			t.cell.Abort(meta.CauseValidation)
			return false
		}
		t.snap = snap
	}
	for i := range t.writes {
		t.writes[i].v.Store(t.writes[i].val)
	}
	t.eng.seq.Store(t.snap + 2)
	return true
}

// Commit implements meta.Txn.
func (t *Txn) Commit() bool { return true }

// Cleanup implements meta.Txn. Backing arrays are kept for reuse.
func (t *Txn) Cleanup() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
}

// AbandonAttempt implements meta.Txn: nothing is shared before commit.
func (t *Txn) AbandonAttempt() {}
