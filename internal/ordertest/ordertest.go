// Package ordertest is the engine-level oracle for the predefined
// order: it drives a meta.Engine directly — no run-loop, no pipeline —
// from several goroutines, each allocating through its own
// meta.TxnPool so descriptors recycle, and compares every
// transaction's result, not only the final state, with the sequential
// fold in age order.
package ordertest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/orderedstm/ostm/internal/meta"
	"github.com/orderedstm/ostm/internal/rng"
)

const workers = 4

// rw is the part of a transaction handle a body uses.
type rw interface {
	Read(v *meta.Var) uint64
	Write(v *meta.Var, x uint64)
}

// Shape is one family of transaction bodies: op is the transaction at
// an age over vars, initialised to init; its result is what the oracle
// compares per age.
type Shape struct {
	name string
	vars int
	init uint64
	op   func(tx rw, vars []meta.Var, age uint64) uint64
}

// Audits: every third age is a read-only audit (an order-sensitive
// digest of every balance), the rest are transfers whose result is the
// sender's balance afterwards. A transaction that wrote nothing has no
// effect on the final state, so only the per-transaction comparison can
// see it serialize at the wrong point.
var Audits = Shape{name: "audits", vars: 8, init: 100, op: func(tx rw, vars []meta.Var, age uint64) uint64 {
	if age%3 == 2 {
		var digest uint64
		for i := range vars {
			digest = digest*31 + tx.Read(&vars[i])
		}
		return digest
	}
	n := uint64(len(vars))
	from, to := int(age*7%n), int((age*13+1)%n)
	amt := age%5 + 1
	bal := tx.Read(&vars[from])
	if from != to && bal >= amt {
		tx.Write(&vars[from], bal-amt)
		tx.Write(&vars[to], tx.Read(&vars[to])+amt)
		bal -= amt
	}
	return bal
}}

// WriteHeavy: 12 random operations over 64 variables, 55 % reads; a
// write reads its variable, flickers it through 0 and stores a
// successor (the same variable written twice, so a writer re-enters a
// lock it already owns). No committed state holds a 0, and the result
// digests every value the transaction read.
var WriteHeavy = Shape{name: "write-heavy", vars: 64, init: 1, op: func(tx rw, vars []meta.Var, age uint64) uint64 {
	r := rng.New(rng.Mix64(age))
	var digest uint64
	for k := 0; k < 12; k++ {
		v := &vars[r.Intn(len(vars))]
		g := tx.Read(v)
		digest = digest*31 + g
		if r.Intn(100) >= 55 {
			tx.Write(v, 0)
			tx.Write(v, g+age+1)
		}
	}
	return digest
}}

// HotReads: one variable; even ages read it 32 times (a read-only
// digest), odd ages add their age to it. Every transaction contends on
// one record, so the lower-age readers overlap the re-acquisitions of
// the higher-age writers they abort.
var HotReads = Shape{name: "hot-reads", vars: 1, init: 1, op: func(tx rw, vars []meta.Var, age uint64) uint64 {
	v := &vars[0]
	if age%2 == 0 {
		var digest uint64
		for k := 0; k < 32; k++ {
			digest = digest*31 + tx.Read(v)
		}
		return digest
	}
	x := tx.Read(v)
	tx.Write(v, x+age)
	return x
}}

// seqTx runs an op against plain memory: the sequential fold.
type seqTx struct{}

func (seqTx) Read(v *meta.Var) uint64     { return v.Load() }
func (seqTx) Write(v *meta.Var, x uint64) { v.Store(x) }

// Name returns the shape's name.
func (s Shape) Name() string { return s.name }

func (s Shape) newVars() []meta.Var {
	vars := meta.NewVars(s.vars)
	for i := range vars {
		vars[i].Store(s.init)
	}
	return vars
}

// MatchesSequentialFold runs n ages of s on eng — an ordered engine
// configured with order, either blocked (TryCommit waits for its turn
// and completes the order itself) or cooperative (commitAt drives the
// commit) — with GOMAXPROCS of at least 2, and fails t at the lowest
// age whose result differs from the sequential fold, then at the first
// variable whose final value does.
func MatchesSequentialFold(t *testing.T, eng meta.PoolEngine, order *meta.Order, s Shape, n int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	want := make([]uint64, n)
	seqVars := s.newVars()
	for age := range want {
		want[age] = s.op(seqTx{}, seqVars, uint64(age))
	}

	vars := s.newVars()
	got := make([]uint64, n)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := eng.NewPool()
			for {
				age := next.Add(1) - 1
				if age >= uint64(n) {
					return
				}
				for tries := 0; ; tries++ {
					// The run-loop's retry throttle: without it, abort
					// storms can keep an age from committing for seconds.
					if tries >= meta.RetriesBeforeReachable {
						order.WaitReachable(age, nil)
					}
					if res, ok := attempt(eng, order, pool, s, vars, age); ok {
						got[age] = res
						break
					}
				}
			}
		}()
	}
	wg.Wait()

	for age := range want {
		if got[age] != want[age] {
			t.Fatalf("%s/%s: age %d returned %d, the sequential fold %d", eng.Name(), s.name, age, got[age], want[age])
		}
	}
	for i := range vars {
		if vars[i].Load() != seqVars[i].Load() {
			t.Fatalf("%s/%s: variable %d holds %d, the sequential fold %d", eng.Name(), s.name, i, vars[i].Load(), seqVars[i].Load())
		}
	}
}

// attempt runs one attempt of age to its final commit; ok=false means
// it aborted (speculatively, at TryCommit or while commit-pending) and
// must be re-executed. The attempt goes back to pool either way.
func attempt(eng meta.Engine, order *meta.Order, pool meta.TxnPool, s Shape, vars []meta.Var, age uint64) (res uint64, ok bool) {
	txn := pool.NewTxn(age)
	defer pool.Retire(txn)
	if aborts(func() { res = s.op(txn, vars, age) }) {
		txn.AbandonAttempt()
		return res, false
	}
	if !txn.TryCommit() {
		return res, false
	}
	if eng.Mode() != meta.ModeCooperative {
		return res, true
	}
	return res, commitAt(order, txn, age)
}

// aborts runs f and reports whether it unwound with an abort signal;
// any other panic propagates.
func aborts(f func()) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, abort := meta.AbortCause(r); !abort {
				panic(r)
			}
			aborted = true
		}
	}()
	f()
	return false
}

// commitAt is the cooperative engines' validator for one commit-pending
// attempt: wait until age is reachable or the attempt is doomed, then
// commit it, complete the order and clean up. A doomed attempt that is
// not yet reachable is abandoned for re-execution.
func commitAt(order *meta.Order, txn meta.Txn, age uint64) bool {
	for spin := 0; !order.Reachable(age); spin++ {
		if txn.Doomed() {
			txn.AbandonAttempt()
			return false
		}
		meta.Pause(spin)
	}
	if !txn.Commit() {
		return false
	}
	order.Complete(age)
	txn.Cleanup()
	return true
}

// ReaderSkipsHigherAgeWrites checks that a lower-age reader never
// returns a value a live higher-age writer stored: one goroutine
// acquires a record at age 1 and rolls back, over and over, while age
// 0 reads it n times, each time in a fresh attempt. On a cooperative
// engine the writer also exposes its write (TryCommit) before it rolls
// back, so a write-back engine's published value is in the window too.
// Under the order the read comes first, so the writer must not have it
// killed — the reader itself must abort the writer or see past it, and
// its re-check of the lock word must follow its load to catch a store
// landing in between.
func ReaderSkipsHigherAgeWrites(t *testing.T, eng meta.PoolEngine, n int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	x := meta.NewVar(0)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		pool := eng.NewPool()
		for !stop.Load() {
			w := pool.NewTxn(1)
			if !aborts(func() { w.Write(x, 1) }) && eng.Mode() == meta.ModeCooperative {
				w.TryCommit() // expose the write, then roll it back
			}
			w.AbandonAttempt()
			pool.Retire(w)
		}
	}()
	defer func() {
		stop.Store(true)
		<-done
	}()
	pool := eng.NewPool()
	for i := 0; i < n; i++ {
		r := pool.NewTxn(0)
		got := r.Read(x)
		r.AbandonAttempt()
		pool.Retire(r)
		if got != 0 {
			t.Fatalf("%s: read %d at age 0 returned %d, stored by the live age-1 writer", eng.Name(), i, got)
		}
	}
}
