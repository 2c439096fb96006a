package core

import (
	"testing"
	"time"

	"github.com/orderedstm/ostm/internal/meta"
)

func cfg() meta.EngineConfig {
	return meta.EngineConfig{TableBits: 12}.Normalize()
}

// catchAbort runs f and reports whether it unwound with an abort
// signal.
func catchAbort(f func()) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := meta.AbortCause(r); !ok {
				panic(r)
			}
			aborted = true
		}
	}()
	f()
	return false
}

// --- OWB protocol ---

func TestOWBForwardingAndCascadeAbort(t *testing.T) {
	eng := NewOWB(cfg())
	v := meta.NewVar(10)
	t0 := eng.NewTxn(0).(*OWBTxn)
	t0.Write(v, 42)
	if !t0.TryCommit() {
		t.Fatal("t0 expose failed")
	}
	if v.Load() != 42 {
		t.Fatal("expose did not publish the value")
	}
	// A higher-age reader consumes the exposed (uncommitted) value and
	// registers as a dependent.
	t1 := eng.NewTxn(1).(*OWBTxn)
	if got := t1.Read(v); got != 42 {
		t.Fatalf("forwarded read = %d, want 42", got)
	}
	if t0.deps.Len() == 0 {
		t.Fatal("reader did not register in the writer's dependency list")
	}
	// Aborting the exposed writer cascades to the reader and restores
	// the old value.
	if !t0.abort(meta.CauseRAW) {
		t.Fatal("abort of exposed writer failed")
	}
	if !t1.Doomed() {
		t.Fatal("cascade did not doom the dependent reader")
	}
	if v.Load() != 10 {
		t.Fatalf("abort did not restore the value: %d", v.Load())
	}
	if eng.locks.Of(v).writer.Load() != nil {
		t.Fatal("abort did not release the lock")
	}
}

func TestOWBExposeAgeConflict(t *testing.T) {
	eng := NewOWB(cfg())
	v := meta.NewVar(0)
	// Higher age exposes first.
	t1 := eng.NewTxn(5).(*OWBTxn)
	t1.Write(v, 5)
	if !t1.TryCommit() {
		t.Fatal("t1 expose failed")
	}
	// Lower age exposing the same object must win (W2→W1): abort the
	// holder and acquire.
	t0 := eng.NewTxn(2).(*OWBTxn)
	t0.Write(v, 2)
	if !t0.TryCommit() {
		t.Fatal("t0 expose failed against higher-age holder")
	}
	if t1.status.Load() != meta.StatusAborted {
		t.Fatalf("higher-age holder not aborted: %v", t1.status.Load())
	}
	if v.Load() != 2 {
		t.Fatalf("value = %d, want 2", v.Load())
	}
	// And the reverse: a higher age encountering a lower-age holder
	// aborts itself.
	t3 := eng.NewTxn(7).(*OWBTxn)
	t3.Write(v, 7)
	if t3.TryCommit() {
		t.Fatal("higher age exposed over a lower-age lock holder")
	}
	if t3.status.Load() != meta.StatusAborted {
		t.Fatal("failed expose must finalize aborted")
	}
}

func TestOWBCommitLifecycle(t *testing.T) {
	eng := NewOWB(cfg())
	v := meta.NewVar(1)
	tx := eng.NewTxn(0).(*OWBTxn)
	if got := tx.Read(v); got != 1 {
		t.Fatalf("read = %d", got)
	}
	tx.Write(v, 9)
	if got := tx.Read(v); got != 9 {
		t.Fatalf("read-own-write = %d", got)
	}
	if !tx.TryCommit() || !tx.Commit() {
		t.Fatal("commit path failed")
	}
	if v.Load() != 9 || eng.locks.Of(v).writer.Load() != nil {
		t.Fatal("commit did not publish and release")
	}
	tx.Cleanup()
	// Committed transactions cannot be aborted.
	if tx.abort(meta.CauseRAW) {
		t.Fatal("abort of committed transaction succeeded")
	}
}

func TestOWBValidationAbortsStaleReader(t *testing.T) {
	eng := NewOWB(cfg())
	v := meta.NewVar(0)
	u := meta.NewVar(0)
	tr := eng.NewTxn(3).(*OWBTxn)
	if tr.Read(v) != 0 {
		t.Fatal("unexpected value")
	}
	// A lower-age writer exposes and commits over v.
	tw := eng.NewTxn(1).(*OWBTxn)
	tw.Write(v, 8)
	if !tw.TryCommit() || !tw.Commit() {
		t.Fatal("writer commit failed")
	}
	// The reader's next read must fail incremental validation.
	if !catchAbort(func() { tr.Read(u) }) {
		t.Fatal("stale read-set survived incremental validation")
	}
	if tr.status.Load() != meta.StatusAborted {
		t.Fatal("reader not finalized aborted")
	}
}

// --- OUL protocol ---

func TestOULForwardingVisibleReaders(t *testing.T) {
	eng := NewOUL(cfg())
	v := meta.NewVar(10)
	t0 := eng.NewTxn(0).(*OULTxn)
	t0.Write(v, 42) // write-through: value immediately visible
	if v.Load() != 42 {
		t.Fatal("write-through did not publish")
	}
	t1 := eng.NewTxn(1).(*OULTxn)
	if got := t1.Read(v); got != 42 {
		t.Fatalf("forwarded read = %d, want 42", got)
	}
	// The reader is visible in the lock's slot array.
	arr := eng.locks.Of(v).readers.Peek()
	if arr == nil {
		t.Fatal("no reader slots allocated")
	}
	found := false
	for i := range arr.Slots {
		if arr.Slots[i].Load() == t1.ref() {
			found = true
		}
	}
	if !found {
		t.Fatal("reader not visible")
	}
	// Rolling back the writer kills the speculative reader and
	// restores the value.
	t0.abort(t0.ref(), meta.CauseWAW)
	if !t1.Doomed() {
		t.Fatal("speculative reader survived the writer's rollback")
	}
	if v.Load() != 10 {
		t.Fatalf("rollback restored %d, want 10", v.Load())
	}
}

func TestOULWriterKillsOnlyHigherAgeReaders(t *testing.T) {
	eng := NewOUL(cfg())
	v := meta.NewVar(0)
	older := eng.NewTxn(1).(*OULTxn)
	younger := eng.NewTxn(9).(*OULTxn)
	older.Read(v)
	younger.Read(v)
	w := eng.NewTxn(5).(*OULTxn)
	w.Write(v, 1) // R2→W1: only the age-9 reader conflicts
	if older.Doomed() {
		t.Fatal("lower-age reader wrongly killed")
	}
	if !younger.Doomed() {
		t.Fatal("higher-age speculative reader survived")
	}
}

func TestOULWAWAbortsSelfWithoutSteal(t *testing.T) {
	eng := NewOUL(cfg())
	v := meta.NewVar(0)
	t0 := eng.NewTxn(0).(*OULTxn)
	t0.Write(v, 1)
	t1 := eng.NewTxn(4).(*OULTxn)
	if !catchAbort(func() { t1.Write(v, 2) }) {
		t.Fatal("W1→W2 did not abort the higher-age writer in plain OUL")
	}
	if v.Load() != 1 {
		t.Fatal("failed write leaked a value")
	}
	// Reverse direction: a lower-age writer aborts the higher-age
	// holder (W2→W1) and acquires the lock.
	u := meta.NewVar(0)
	t5 := eng.NewTxn(5).(*OULTxn)
	t5.Write(u, 5)
	t2 := eng.NewTxn(2).(*OULTxn)
	t2.Write(u, 3)
	if t5.status.Load() != meta.StatusAborted {
		t.Fatal("higher-age holder not aborted by the lower-age writer")
	}
	if u.Load() != 3 {
		t.Fatalf("u = %d, want 3", u.Load())
	}
	if t0.status.Load() == meta.StatusAborted {
		t.Fatal("t0 should still be live")
	}
}

func TestOULCommitIsSingleStep(t *testing.T) {
	eng := NewOUL(cfg())
	v := meta.NewVar(0)
	t0 := eng.NewTxn(0).(*OULTxn)
	t0.Write(v, 7)
	if !t0.TryCommit() {
		t.Fatal("try-commit failed")
	}
	if !t0.Commit() {
		t.Fatal("commit failed")
	}
	// Cleanup leaves t0 in the word: back at RefNil, it would pass the
	// re-check of a reader that saw RefNil before t0 acquired it.
	t0.Cleanup()
	if eng.locks.Of(v).writer.Load() != t0.ref() {
		t.Fatal("Cleanup returned the lock word to a value a reader may have seen")
	}
	// A committed owner means free: a later writer acquires without
	// aborting anyone.
	t1 := eng.NewTxn(1).(*OULTxn)
	t1.Write(v, 8)
	if v.Load() != 8 {
		t.Fatal("acquisition after commit failed")
	}
}

// --- shared descriptor machinery ---

func TestAbandonAttemptIdempotent(t *testing.T) {
	eng := NewOUL(cfg())
	v := meta.NewVar(0)
	tx := eng.NewTxn(0).(*OULTxn)
	tx.Write(v, 3)
	tx.AbandonAttempt()
	tx.AbandonAttempt()
	if v.Load() != 0 {
		t.Fatal("abandon did not roll back")
	}
	if tx.status.Load() != meta.StatusAborted {
		t.Fatal("abandon did not finalize")
	}
	owb := NewOWB(cfg())
	to := owb.NewTxn(0).(*OWBTxn)
	to.Write(v, 4)
	to.AbandonAttempt()
	to.AbandonAttempt()
	if v.Load() != 0 {
		t.Fatal("OWB abandon leaked a buffered write")
	}
}

func TestEngineIdentities(t *testing.T) {
	c := cfg()
	if NewOWB(c).Name() != "OWB" || NewOWB(c).Mode() != meta.ModeCooperative {
		t.Fatal("OWB identity wrong")
	}
	if NewOUL(c).Name() != "OUL" || NewOUL(c).Mode() != meta.ModeCooperative {
		t.Fatal("OUL identity wrong")
	}
	if NewOUL(c).Stats() == nil {
		t.Fatal("stats not wired")
	}
}

func TestDoomedOperationsUnwind(t *testing.T) {
	eng := NewOUL(cfg())
	v := meta.NewVar(0)
	tx := eng.NewTxn(2).(*OULTxn)
	tx.Write(v, 1)
	tx.abort(tx.ref(), meta.CauseOrder) // externally doomed
	if !catchAbort(func() { tx.Read(v) }) {
		t.Fatal("doomed transaction's read did not unwind")
	}
	if !catchAbort(func() { tx.Write(v, 2) }) {
		t.Fatal("doomed transaction's write did not unwind")
	}
	if tx.TryCommit() {
		t.Fatal("doomed transaction committed")
	}
}

// --- reader-slot reuse ---

// TestOULDeadReaderSlotIsReused: a reader slot whose occupant's life
// is final is free, even when nothing scrubbed it. With one slot per
// record, age 5 reads, aborts and is abandoned without Retire, so its
// registration stays behind; age 3's read must take that slot without
// being doomed. No sweep runs over the lock table, so this reuse (and
// Retire's scrub) is what bounds the slots a long stream leaves.
func TestOULDeadReaderSlotIsReused(t *testing.T) {
	eng := NewOUL(meta.EngineConfig{TableBits: 12, MaxReaders: 1}.Normalize())
	v := meta.NewVar(7)
	lk := eng.locks.Of(v)

	dead := eng.NewTxn(5).(*OULTxn)
	dead.Read(v)
	dead.abort(dead.ref(), meta.CauseBusy)
	dead.AbandonAttempt()
	arr := lk.readers.Peek()
	if len(arr.Slots) != 1 || arr.Slots[0].Load() != dead.ref() {
		t.Fatal("test setup: the aborted reader does not hold the only slot")
	}

	live := eng.NewTxn(3).(*OULTxn)
	got := make(chan uint64, 1)
	go func() { got <- live.Read(v) }()
	select {
	case x := <-got:
		if x != 7 {
			t.Fatalf("age 3 read %d, want 7", x)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("age 3's read is still waiting for the slot the final age 5 left")
	}
	if live.Doomed() {
		t.Fatal("age 3 was doomed taking a dead reader's slot")
	}
	if arr.Slots[0].Load() != live.ref() {
		t.Fatal("age 3 is not registered in the reused slot")
	}
}
