package core

import (
	"testing"

	"github.com/orderedstm/ostm/internal/meta"
)

// TestOULStaleSlotRegistrationIgnored: a reader-slot reference from a
// finalized life must be invisible to the protocol once the descriptor
// is renewed — the writer-side kill must not doom the descriptor's new
// life through the dead registration (the reader-side half of the ABA
// the generation stamps prevent), and the slot must be reclaimable.
func TestOULStaleSlotRegistrationIgnored(t *testing.T) {
	eng := NewOUL(cfg())
	v := meta.NewVar(0)
	r1 := eng.NewTxn(5).(*OULTxn)
	if r1.Read(v) != 0 {
		t.Fatal("setup read failed")
	}
	r1.abort(r1.ref(), meta.CauseBusy)
	r1.AbandonAttempt()
	// Renew the descriptor in place, deliberately leaving the life-0
	// registration in the slot (the pool normally scrubs at Retire, but
	// a lost CAS or an abort racing the sweep can leave one behind).
	r1.readRefs = r1.readRefs[:0]
	r1.doomed.Store(false)
	r1.aborted.Store(false)
	r1.age.Store(9)
	r1.status.Renew()

	w := eng.NewTxn(1).(*OULTxn)
	w.Write(v, 7) // kills visible readers with age > 1
	if r1.Doomed() {
		t.Fatal("stale slot registration was honored: renewed descriptor doomed")
	}
	// The stale slot is free for a new reader.
	r2 := eng.NewTxn(2).(*OULTxn)
	r2.Read(v)
	arr := eng.locks.Of(v).readers.Peek()
	foundStale, foundNew := false, false
	for i := range arr.Slots {
		switch arr.Slots[i].Load() {
		case meta.MakeRef(r1.idx, 0):
			foundStale = true
		case r2.ref():
			foundNew = true
		}
	}
	if !foundNew {
		t.Fatal("new reader not registered")
	}
	if foundStale && len(arr.Slots) > 1 {
		// With more than one slot the claim may have landed elsewhere;
		// that is fine — the stale ref just must not be load-bearing.
		t.Log("stale ref still parked (unclaimed slot)")
	}
}

// TestOULAbortSparesRenewedLife: an aborter acts on the life it
// resolved. If that life finalized and the pool renewed the descriptor
// in between, the abort must leave the new life alone — not doom it,
// not claim it, and not roll back its writes.
func TestOULAbortSparesRenewedLife(t *testing.T) {
	eng := NewOUL(cfg())
	pool := eng.NewPool()
	v := meta.NewVar(0)
	old := pool.NewTxn(1).(*OULTxn)
	checked := old.ref()
	old.AbandonAttempt()
	pool.Retire(old)

	cur := pool.NewTxn(2).(*OULTxn)
	if cur != old {
		t.Fatal("expected the retired descriptor back from the pool")
	}
	cur.Write(v, 7)
	if cur.abort(checked, meta.CauseWAW) {
		t.Fatal("abort of a finished life reported a doom")
	}
	if cur.Doomed() || cur.status.Load() != meta.StatusActive {
		t.Fatalf("renewed life doomed=%v status=%v, want live", cur.Doomed(), cur.status.Load())
	}
	if v.Load() != 7 || eng.locks.Of(v).writer.Load() != cur.ref() {
		t.Fatal("renewed life's write was rolled back")
	}
	if !cur.abort(cur.ref(), meta.CauseWAW) || v.Load() != 0 {
		t.Fatal("abort of the current life did not roll it back")
	}
}

// TestOULStealChainPinsDescriptor: a descriptor whose undo log is
// still referenced by a steal chain (pins > 0) must not be renewed by
// the pool until the chain holder itself recycles — renewing earlier
// would let the owner-chain walk read the next life's undo log.
func TestOULStealChainPinsDescriptor(t *testing.T) {
	eng := NewOULSteal(cfg())
	pool := eng.NewPool().(*oulPool)
	v := meta.NewVar(100)

	t0 := pool.NewTxn(0).(*OULTxn)
	t0.Write(v, 1)
	t1 := pool.NewTxn(1).(*OULTxn)
	t1.Write(v, 2) // steals the lock from t0, pinning it
	if got := t0.pins.Load(); got != 1 {
		t.Fatalf("steal must pin the robbed owner: pins = %d", got)
	}

	// The robbed owner aborts while its lock is stolen: it keeps the
	// undo entry (the chain holder is responsible for it).
	t0.abort(t0.ref(), meta.CauseWAW)
	t0.AbandonAttempt()
	pool.Retire(t0)

	// The pool must refuse to renew the pinned descriptor.
	x := pool.NewTxn(3).(*OULTxn)
	if x == t0 {
		t.Fatal("pinned descriptor renewed while a steal chain references it")
	}

	// The chain holder aborts, walking t0's undo log back in.
	t1.abort(t1.ref(), meta.CauseWAW)
	t1.AbandonAttempt()
	if v.Load() != 100 {
		t.Fatalf("chain walk restored %d, want 100", v.Load())
	}
	pool.Retire(t1)

	// Renewing the chain holder releases its pins…
	y := pool.NewTxn(4).(*OULTxn)
	if y != t1 {
		t.Fatalf("expected the retired chain holder back from the pool")
	}
	if got := t0.pins.Load(); got != 0 {
		t.Fatalf("renewing the holder must unpin the chain: pins = %d", got)
	}
	// …after which the parked descriptor returns to circulation.
	z := pool.NewTxn(5).(*OULTxn)
	if z != t0 {
		t.Fatal("unpinned descriptor did not return from the parked list")
	}
	if z.status.Gen() == 0 || !z.ref().SameLife(z.status.LoadLife()) {
		t.Fatal("returned descriptor not renewed consistently")
	}
}
