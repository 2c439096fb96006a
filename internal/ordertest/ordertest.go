// Package ordertest is the engine-level oracle for the predefined
// order: it drives a meta.Engine directly — no run-loop, no pipeline —
// from several goroutines and compares every transaction's result,
// not only the final state, with the sequential fold in age order.
package ordertest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/orderedstm/ostm/internal/meta"
)

const (
	accounts = 8
	initial  = 100
	workers  = 4
)

// rw is the part of a transaction handle a body uses.
type rw interface {
	Read(v *meta.Var) uint64
	Write(v *meta.Var, x uint64)
}

// op is the transaction at one age: every third age is a read-only
// audit (an order-sensitive digest of every balance), the rest are
// transfers whose result is the sender's balance afterwards.
func op(tx rw, vars []meta.Var, age uint64) uint64 {
	if age%3 == 2 {
		var digest uint64
		for i := range vars {
			digest = digest*31 + tx.Read(&vars[i])
		}
		return digest
	}
	from, to := int(age*7%accounts), int((age*13+1)%accounts)
	amt := age%5 + 1
	bal := tx.Read(&vars[from])
	if from != to && bal >= amt {
		tx.Write(&vars[from], bal-amt)
		tx.Write(&vars[to], tx.Read(&vars[to])+amt)
		bal -= amt
	}
	return bal
}

// seqTx runs op against plain memory: the sequential fold.
type seqTx struct{}

func (seqTx) Read(v *meta.Var) uint64     { return v.Load() }
func (seqTx) Write(v *meta.Var, x uint64) { v.Store(x) }

func newVars() []meta.Var {
	vars := meta.NewVars(accounts)
	for i := range vars {
		vars[i].Store(initial)
	}
	return vars
}

// attempt runs one attempt of age to its commit decision; ok=false
// means the attempt aborted (speculatively or at commit) and must be
// re-executed.
func attempt(eng meta.Engine, vars []meta.Var, age uint64) (res uint64, ok bool) {
	txn := eng.NewTxn(age)
	defer func() {
		if r := recover(); r != nil {
			if _, abort := meta.AbortCause(r); !abort {
				panic(r)
			}
			txn.AbandonAttempt()
			ok = false
		}
	}()
	res = op(txn, vars, age)
	return res, txn.TryCommit()
}

// ReadOnlyAuditsMatchSequentialFold runs n ages of audits interleaved
// with transfers on eng — an ordered engine whose TryCommit waits for
// its turn and completes the order itself — with GOMAXPROCS of at
// least 2, and fails t at the lowest age whose result differs from
// the sequential fold. A transaction that wrote nothing has no effect
// on the final state, so only the per-transaction comparison can see
// it serialize at the wrong point.
func ReadOnlyAuditsMatchSequentialFold(t *testing.T, eng meta.Engine, n int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	want := make([]uint64, n)
	seqVars := newVars()
	for age := range want {
		want[age] = op(seqTx{}, seqVars, uint64(age))
	}

	vars := newVars()
	got := make([]uint64, n)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				age := next.Add(1) - 1
				if age >= uint64(n) {
					return
				}
				for {
					if res, ok := attempt(eng, vars, age); ok {
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
			kind := "transfer"
			if age%3 == 2 {
				kind = "read-only audit"
			}
			t.Fatalf("%s: age %d (%s) returned %d, the sequential fold %d", eng.Name(), age, kind, got[age], want[age])
		}
	}
	for i := range vars {
		if vars[i].Load() != seqVars[i].Load() {
			t.Fatalf("%s: account %d holds %d, the sequential fold %d", eng.Name(), i, vars[i].Load(), seqVars[i].Load())
		}
	}
}
