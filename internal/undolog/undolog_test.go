package undolog

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

func TestNames(t *testing.T) {
	cases := map[string]*Engine{
		"UndoLog-vis":           New(cfg(), true, false),
		"Ordered-UndoLog-vis":   New(cfg(), true, true),
		"UndoLog-invis":         New(cfg(), false, false),
		"Ordered-UndoLog-invis": New(cfg(), false, true),
	}
	for want, e := range cases {
		if e.Name() != want {
			t.Fatalf("Name = %q, want %q", e.Name(), want)
		}
	}
	if New(cfg(), true, true).Mode() != meta.ModeBlocked {
		t.Fatal("ordered mode wrong")
	}
	if New(cfg(), true, false).Mode() != meta.ModeUnordered {
		t.Fatal("unordered mode wrong")
	}
}

func TestWriteThroughAndRollback(t *testing.T) {
	e := New(cfg(), false, false)
	v := meta.NewVar(10)
	tx := e.NewTxn(0).(*Txn)
	tx.Write(v, 20)
	if v.Load() != 20 {
		t.Fatal("write-through did not publish")
	}
	lk := e.locks.Of(v)
	verBefore := lk.version.Load()
	tx.AbandonAttempt()
	if v.Load() != 10 {
		t.Fatal("rollback did not restore")
	}
	if lk.version.Load() == verBefore {
		t.Fatal("rollback did not bump the version (invisible readers would miss it)")
	}
}

func TestInvisibleValidationCatchesConcurrentCommit(t *testing.T) {
	e := New(cfg(), false, false)
	v := meta.NewVar(0)
	u := meta.NewVar(0)
	r := e.NewTxn(0).(*Txn)
	_ = r.Read(v)
	w := e.NewTxn(1).(*Txn)
	w.Write(v, 5)
	if !w.TryCommit() {
		t.Fatal("writer commit")
	}
	r.Write(u, 1)
	if r.TryCommit() {
		t.Fatal("stale invisible read survived validation")
	}
	if u.Load() != 0 {
		t.Fatal("failed commit leaked (undo rollback broken)")
	}
}

func TestVisibleWriterKillsReaders(t *testing.T) {
	e := New(cfg(), true, false)
	v := meta.NewVar(0)
	r := e.NewTxn(3).(*Txn)
	_ = r.Read(v)
	w := e.NewTxn(1).(*Txn)
	w.Write(v, 1) // unordered visible: writer priority kills all readers
	if !r.Doomed() {
		t.Fatal("visible reader survived a conflicting write")
	}
	if !catchAbort(func() { r.Read(v) }) {
		t.Fatal("doomed reader did not unwind")
	}
}

func TestOrderedVisibleSparesLowerAgeReaders(t *testing.T) {
	e := New(cfg(), true, true)
	v := meta.NewVar(0)
	older := e.NewTxn(0).(*Txn)
	younger := e.NewTxn(9).(*Txn)
	_ = older.Read(v)
	_ = younger.Read(v)
	w := e.NewTxn(4).(*Txn)
	w.Write(v, 1)
	if older.Doomed() {
		t.Fatal("lower-age reader killed (its read serializes first under ACO)")
	}
	if !younger.Doomed() {
		t.Fatal("higher-age speculative reader survived")
	}
}

func TestOrderedWAWFavorsLowerAge(t *testing.T) {
	e := New(cfg(), false, true)
	v := meta.NewVar(0)
	hi := e.NewTxn(8).(*Txn)
	hi.Write(v, 8)
	lo := e.NewTxn(2).(*Txn)
	// The lower-age writer dooms the higher-age holder, waits for its
	// rollback, then acquires. The victim rolls back at its next
	// operation; simulate by running it in a goroutine.
	go func() {
		for !hi.Doomed() {
		}
		hi.AbandonAttempt()
	}()
	lo.Write(v, 2)
	if v.Load() != 2 {
		t.Fatalf("value = %d, want 2", v.Load())
	}
	if !hi.Doomed() {
		t.Fatal("higher-age holder not doomed")
	}
}

func TestCommitReleasesAndBumps(t *testing.T) {
	e := New(cfg(), false, false)
	v := meta.NewVar(0)
	tx := e.NewTxn(0).(*Txn)
	tx.Write(v, 3)
	lk := e.locks.Of(v)
	before := lk.version.Load()
	if !tx.TryCommit() {
		t.Fatal("commit")
	}
	if lk.version.Load() == before {
		t.Fatal("commit did not bump version")
	}
	// Lock owner is final: a new writer can acquire freely.
	tx2 := e.NewTxn(1).(*Txn)
	tx2.Write(v, 4)
	if v.Load() != 4 {
		t.Fatal("post-commit acquisition failed")
	}
	tx.Cleanup()
}

// TestOrderedMatchesSequentialFold drives both ordered variants from
// several goroutines on recycled descriptors and checks every
// transaction's result — read-only ones included — against the
// sequential fold. A visible reader must load before it re-checks the
// owner word that validates the load. The reader array is cut to one
// slot per worker, which keeps a writer's scan short, so its
// acquire-to-publish path fits between a reader's re-check and load
// more often; the hot-reads shape, where that window opens, runs five
// times the ages.
func TestOrderedMatchesSequentialFold(t *testing.T) {
	for _, visible := range []bool{true, false} {
		for _, r := range []struct {
			s ordertest.Shape
			n int
		}{{ordertest.Audits, 20000}, {ordertest.HotReads, 100000}} {
			c := meta.EngineConfig{TableBits: 10, MaxReaders: 4}.Normalize()
			eng := New(c, visible, true)
			t.Run(eng.Name()+"/"+r.s.Name(), func(t *testing.T) {
				ordertest.MatchesSequentialFold(t, eng, c.Order, r.s, r.n/ordertest.RaceScale)
			})
		}
	}
}

// TestOrderedVisibleReaderSkipsHigherAgeWrites: an ordered visible
// reader re-checks the owner word after its load, not before.
func TestOrderedVisibleReaderSkipsHigherAgeWrites(t *testing.T) {
	ordertest.ReaderSkipsHigherAgeWrites(t, New(meta.EngineConfig{TableBits: 10, MaxReaders: 4}.Normalize(), true, true), 500000/ordertest.RaceScale)
}
