package tl2

import (
	"testing"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/internal/ordertest"
)

func cfg() meta.EngineConfig { return meta.EngineConfig{TableBits: 10}.Normalize() }

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

func TestLockWordSample(t *testing.T) {
	var l tl2Lock
	if v, locked := l.sample(); v != 0 || locked {
		t.Fatal("fresh lock wrong")
	}
	l.word.Store(42 | lockedBit)
	if v, locked := l.sample(); v != 42 || !locked {
		t.Fatalf("sample = %d,%v", v, locked)
	}
}

func TestReadWriteCommitPublishes(t *testing.T) {
	e := New(cfg())
	v := meta.NewVar(5)
	tx := e.NewTxn(0).(*Txn)
	if tx.Read(v) != 5 {
		t.Fatal("read")
	}
	tx.Write(v, 6)
	if tx.Read(v) != 6 {
		t.Fatal("read-own-write")
	}
	if v.Load() != 5 {
		t.Fatal("write-back leaked before commit")
	}
	if !tx.TryCommit() {
		t.Fatal("commit failed")
	}
	if v.Load() != 6 {
		t.Fatal("commit did not publish")
	}
	if ver, locked := e.locks.Of(v).sample(); locked || ver == 0 {
		t.Fatalf("lock state after commit: %d,%v", ver, locked)
	}
}

func TestStaleSnapshotAborts(t *testing.T) {
	e := New(cfg())
	v := meta.NewVar(0)
	old := e.NewTxn(0).(*Txn) // rv taken now
	// A writer commits, advancing the stripe version past old's rv.
	w := e.NewTxn(1).(*Txn)
	w.Write(v, 1)
	if !w.TryCommit() {
		t.Fatal("writer commit failed")
	}
	if !catchAbort(func() { old.Read(v) }) {
		t.Fatal("stale read did not abort")
	}
	if old.ReadSetValid() {
		// read set is empty, so it is trivially valid; but a fresh
		// transaction must read fine
		tx := e.NewTxn(2).(*Txn)
		if tx.Read(v) != 1 {
			t.Fatal("fresh read wrong")
		}
	}
}

func TestCommitValidationFails(t *testing.T) {
	e := New(cfg())
	v := meta.NewVar(0)
	u := meta.NewVar(0)
	r := e.NewTxn(0).(*Txn)
	_ = r.Read(v)
	r.Write(u, 1)
	// Concurrent writer commits over v between r's read and commit.
	w := e.NewTxn(1).(*Txn)
	w.Write(v, 9)
	if !w.TryCommit() {
		t.Fatal("writer commit failed")
	}
	if r.TryCommit() {
		t.Fatal("stale read-set survived commit validation")
	}
	if !r.ReadSetValid() == false {
		_ = r
	}
	if u.Load() != 0 {
		t.Fatal("failed commit leaked writes")
	}
}

func TestReadOnlyCommitsWithoutLocks(t *testing.T) {
	e := New(cfg())
	v := meta.NewVar(3)
	tx := e.NewTxn(0).(*Txn)
	_ = tx.Read(v)
	if !tx.TryCommit() {
		t.Fatal("read-only commit failed")
	}
}

func TestOrderedWaitsForTurn(t *testing.T) {
	e := NewOrdered(cfg())
	v := meta.NewVar(0)
	t0 := e.NewTxn(0).(*Txn)
	t1 := e.NewTxn(1).(*Txn)
	t1.Write(v, 1)
	done := make(chan bool)
	go func() { done <- t1.TryCommit() }()
	// t1 must not commit before t0.
	select {
	case <-done:
		t.Fatal("age 1 committed before age 0")
	default:
	}
	t0.Write(v, 2)
	if !t0.TryCommit() {
		t.Fatal("t0 commit failed")
	}
	if !<-done {
		t.Fatal("t1 commit failed after its turn")
	}
	if v.Load() != 1 {
		t.Fatalf("final value %d, want 1 (t1 commits after t0)", v.Load())
	}
	if e.Name() != "Ordered-TL2" || e.Mode() != meta.ModeBlocked {
		t.Fatal("ordered identity wrong")
	}
}

func TestCleanupAndAbandon(t *testing.T) {
	e := New(cfg())
	v := meta.NewVar(0)
	tx := e.NewTxn(0).(*Txn)
	tx.Write(v, 1)
	tx.AbandonAttempt() // no shared state to clean
	if v.Load() != 0 {
		t.Fatal("abandon leaked")
	}
	tx2 := e.NewTxn(1).(*Txn)
	_ = tx2.Read(v)
	tx2.Cleanup()
	if tx2.Doomed() {
		t.Fatal("TL2 transactions are never doomed")
	}
}

// TestOrderedReadOnlyObservesItsAge: under a predefined order a
// transaction that wrote nothing must still observe exactly the state
// after the age below it, so its snapshot is validated at its turn.
func TestOrderedReadOnlyObservesItsAge(t *testing.T) {
	ordertest.ReadOnlyAuditsMatchSequentialFold(t, NewOrdered(cfg()), 20000)
}
