// Package tl2 implements the TL2 algorithm of Dice, Shalev and Shavit
// (DISC 2006) in its unordered form and the ordered variant used as a
// baseline in the paper (§8): "transactions are allowed to enter the
// commit phase only when all transactions with lower age have been
// committed".
//
// TL2 is a commit-time write-back STM with a global version clock and
// per-stripe versioned write locks: reads post-validate against the
// transaction's read version, writes are buffered and published under
// locks stamped with a new clock value.
package tl2

import (
	"sync/atomic"

	"github.com/orderedstm/ostm/internal/meta"
)

// lockedBit marks a stripe as write-locked; the remaining bits are the
// stripe's version.
const lockedBit = uint64(1) << 63

// tl2Lock is one versioned-lock stripe.
type tl2Lock struct{ word atomic.Uint64 }

func (l *tl2Lock) sample() (ver uint64, locked bool) {
	w := l.word.Load()
	return w &^ lockedBit, w&lockedBit != 0
}

// Engine implements meta.Engine for TL2 and Ordered TL2.
type Engine struct {
	cfg     meta.EngineConfig
	locks   *meta.Table[tl2Lock]
	clock   atomic.Uint64
	ordered bool
	depot   meta.Depot[Txn]
}

// New returns a fresh unordered TL2 engine for one run.
func New(cfg meta.EngineConfig) *Engine {
	cfg = cfg.Normalize()
	return &Engine{cfg: cfg, locks: meta.NewTable[tl2Lock](cfg.TableBits)}
}

// NewOrdered returns a fresh Ordered TL2 engine for one run.
func NewOrdered(cfg meta.EngineConfig) *Engine {
	e := New(cfg)
	e.ordered = true
	return e
}

// Name implements meta.Engine.
func (e *Engine) Name() string {
	if e.ordered {
		return "Ordered-TL2"
	}
	return "TL2"
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

// NewTxn implements meta.Engine.
func (e *Engine) NewTxn(age uint64) meta.Txn {
	return &Txn{eng: e, cell: e.cfg.Stats.DefaultCell(), age: age, rv: e.clock.Load()}
}

// NewPool implements meta.PoolEngine. TL2 descriptors are never
// published to shared metadata (locks are versioned words, not
// descriptor references), so recycling needs no generation checks:
// the pool just reuses the reads/writes backing arrays and resamples
// the read version.
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
		return &Txn{eng: p.eng, cell: p.cell, age: age, rv: p.eng.clock.Load()}
	}
	t.age = age
	t.rv = p.eng.clock.Load()
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

type writeEntry struct {
	v    *meta.Var
	lock *tl2Lock
	val  uint64
}

// Txn is one TL2 transaction attempt.
type Txn struct {
	eng      *Engine
	cell     *meta.StatsCell
	age      uint64
	rv       uint64 // read version sampled at start
	reads    []*tl2Lock
	writes   []writeEntry
	acquired []*tl2Lock // commit-time lock scratch, reused across lives
}

// Age implements meta.Txn.
func (t *Txn) Age() uint64 { return t.age }

// Doomed implements meta.Txn: TL2 has no cross-transaction aborts.
func (t *Txn) Doomed() bool { return false }

// Read implements the TL2 read protocol: sample the stripe, load the
// value, re-sample; the stripe must be unlocked with version ≤ rv.
func (t *Txn) Read(v *meta.Var) uint64 {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].v == v {
			return t.writes[i].val
		}
	}
	lk := t.eng.locks.Of(v)
	for spin := 0; ; spin++ {
		ver, locked := lk.sample()
		val := v.Load()
		ver2, locked2 := lk.sample()
		if !locked && !locked2 && ver == ver2 && ver <= t.rv {
			t.reads = append(t.reads, lk)
			return val
		}
		if (locked || locked2) && spin < t.eng.cfg.SpinBudget {
			meta.Pause(spin) // a committer holds the stripe; brief wait
			continue
		}
		// Stale snapshot (stripe advanced past rv): abort and retry
		// with a fresh read version.
		t.cell.Abort(meta.CauseValidation)
		meta.PanicAbort(meta.CauseValidation)
	}
}

// Write buffers the update.
func (t *Txn) Write(v *meta.Var, x uint64) {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if t.writes[i].v == v {
			t.writes[i].val = x
			return
		}
	}
	t.writes = append(t.writes, writeEntry{v: v, lock: t.eng.locks.Of(v), val: x})
}

// ReadSetValid implements meta.Revalidator for the sandbox.
func (t *Txn) ReadSetValid() bool {
	for _, lk := range t.reads {
		ver, locked := lk.sample()
		if locked || ver > t.rv {
			return false
		}
	}
	return true
}

// holds reports whether the stripe is among the first n distinct locks
// this transaction acquired at commit.
func (t *Txn) holds(lk *tl2Lock, acquired []*tl2Lock) bool {
	for _, h := range acquired {
		if h == lk {
			return true
		}
	}
	return false
}

// TryCommit performs the full TL2 commit. The ordered variant first
// waits for its turn in the predefined commit order; at its turn it is
// the only committer in the system, so lock acquisition cannot contend
// and a validation failure (stale snapshot) is repaired by the
// executor re-executing the transaction, which then commits for sure.
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
		// Read-only transactions are consistent by construction
		// (every read post-validated against rv) — at the snapshot,
		// which is where plain TL2 serializes them. Under a predefined
		// order age a must observe exactly the state after age a-1,
		// so at its turn (every lower age committed, no other
		// committer) the snapshot must still be current; a stale one
		// is repaired by re-execution, like any failed validation.
		if t.eng.ordered && !t.ReadSetValid() {
			t.cell.Abort(meta.CauseValidation)
			return false
		}
		return true
	}
	acquired := t.acquired[:0]
	for i := range t.writes {
		lk := t.writes[i].lock
		if t.holds(lk, acquired) {
			continue
		}
		got := false
		for spin := 0; spin < t.eng.cfg.SpinBudget; spin++ {
			w := lk.word.Load()
			if w&lockedBit == 0 && lk.word.CompareAndSwap(w, w|lockedBit) {
				got = true
				break
			}
			meta.Pause(spin)
		}
		if !got {
			t.release(acquired, 0)
			t.acquired = acquired[:0]
			t.cell.Abort(meta.CauseLockedWrite)
			return false
		}
		acquired = append(acquired, lk)
	}
	wv := t.eng.clock.Add(1)
	if wv != t.rv+1 {
		// Validate the read-set: unlocked (or locked by us) with
		// version ≤ rv.
		for _, lk := range t.reads {
			ver, locked := lk.sample()
			if ver > t.rv || (locked && !t.holds(lk, acquired)) {
				t.release(acquired, 0)
				t.acquired = acquired[:0]
				t.cell.Abort(meta.CauseValidation)
				return false
			}
		}
	}
	for i := range t.writes {
		t.writes[i].v.Store(t.writes[i].val)
	}
	t.release(acquired, wv)
	t.acquired = acquired[:0]
	return true
}

// release unlocks the acquired stripes, stamping version wv (wv==0
// restores the pre-lock version).
func (t *Txn) release(acquired []*tl2Lock, wv uint64) {
	for _, lk := range acquired {
		if wv == 0 {
			lk.word.Store(lk.word.Load() &^ lockedBit)
		} else {
			lk.word.Store(wv &^ lockedBit)
		}
	}
}

// Commit implements meta.Txn (no separate finalize step for TL2).
func (t *Txn) Commit() bool { return true }

// Cleanup implements meta.Txn. Backing arrays are kept for reuse.
func (t *Txn) Cleanup() {
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
}

// AbandonAttempt implements meta.Txn: nothing is shared before commit.
func (t *Txn) AbandonAttempt() {}
