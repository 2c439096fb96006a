package norec

import (
	"testing"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/internal/ordertest"
)

func cfg() meta.EngineConfig { return meta.EngineConfig{}.Normalize() }

func TestCommitPublishesAndBumpsSeq(t *testing.T) {
	e := New(cfg())
	v := meta.NewVar(1)
	tx := e.NewTxn(0).(*Txn)
	if tx.Read(v) != 1 {
		t.Fatal("read")
	}
	tx.Write(v, 2)
	if tx.Read(v) != 2 {
		t.Fatal("read-own-write")
	}
	if !tx.TryCommit() {
		t.Fatal("commit")
	}
	if v.Load() != 2 {
		t.Fatal("publish")
	}
	if e.seq.Load() == 0 || e.seq.Load()%2 != 0 {
		t.Fatalf("sequence lock ended odd: %d", e.seq.Load())
	}
}

func TestValueValidationTolaratesSameValue(t *testing.T) {
	// NOrec's value-based validation: a concurrent commit that writes
	// the SAME value to a read location does not abort the reader —
	// the property behind its Labyrinth win (§8).
	e := New(cfg())
	v := meta.NewVar(7)
	u := meta.NewVar(0)
	r := e.NewTxn(0).(*Txn)
	if r.Read(v) != 7 {
		t.Fatal("read")
	}
	w := e.NewTxn(1).(*Txn)
	w.Write(v, 7) // same value
	if !w.TryCommit() {
		t.Fatal("writer commit")
	}
	r.Write(u, 1)
	if !r.TryCommit() {
		t.Fatal("same-value overwrite aborted the reader (value validation broken)")
	}
}

func TestValueValidationCatchesChange(t *testing.T) {
	e := New(cfg())
	v := meta.NewVar(7)
	u := meta.NewVar(0)
	r := e.NewTxn(0).(*Txn)
	_ = r.Read(v)
	w := e.NewTxn(1).(*Txn)
	w.Write(v, 8) // different value
	if !w.TryCommit() {
		t.Fatal("writer commit")
	}
	r.Write(u, 1)
	if r.TryCommit() {
		t.Fatal("changed value survived commit validation")
	}
	if !r.ReadSetValid() {
		// expected: the read set is genuinely stale
	} else {
		t.Fatal("ReadSetValid claims a stale set is valid")
	}
	if u.Load() != 0 {
		t.Fatal("failed commit leaked")
	}
}

func TestReadOnlyNeverAcquiresSeq(t *testing.T) {
	e := New(cfg())
	v := meta.NewVar(3)
	before := e.seq.Load()
	tx := e.NewTxn(0).(*Txn)
	_ = tx.Read(v)
	if !tx.TryCommit() {
		t.Fatal("read-only commit")
	}
	if e.seq.Load() != before {
		t.Fatal("read-only commit moved the global clock")
	}
}

func TestOrderedTurnHandoff(t *testing.T) {
	e := NewOrdered(cfg())
	if e.Name() != "Ordered-NOrec" || e.Mode() != meta.ModeBlocked {
		t.Fatal("identity wrong")
	}
	v := meta.NewVar(0)
	t1 := e.NewTxn(1).(*Txn)
	t1.Write(v, 11)
	done := make(chan bool)
	go func() { done <- t1.TryCommit() }()
	t0 := e.NewTxn(0).(*Txn)
	t0.Write(v, 10)
	if !t0.TryCommit() {
		t.Fatal("t0 commit")
	}
	if !<-done {
		t.Fatal("t1 commit after turn")
	}
	if v.Load() != 11 {
		t.Fatalf("final = %d", v.Load())
	}
}

// TestOrderedReadOnlyObservesItsAge: under a predefined order a
// transaction that wrote nothing must still observe exactly the state
// after the age below it, so its reads are revalidated at its turn.
// The write-heavy and hot-read shapes hold the writers to the same
// fold.
func TestOrderedReadOnlyObservesItsAge(t *testing.T) {
	for _, s := range []ordertest.Shape{ordertest.Audits, ordertest.WriteHeavy, ordertest.HotReads} {
		t.Run(s.Name(), func(t *testing.T) {
			c := cfg()
			ordertest.MatchesSequentialFold(t, NewOrdered(c), c.Order, s, 20000)
		})
	}
}
