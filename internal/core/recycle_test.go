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
