package stm_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
)

// readTrace records, per age, the values the committing attempt read.
// Every attempt restarts its age's slot and the attempt that commits
// runs last (DESIGN.md §10), so after a run each slot holds what the
// committed transaction saw — comparable, age by age, with the
// sequential run's.
type readTrace [][]uint64

// record wraps body so that each attempt's reads land in its slot.
func (tr readTrace) record(body stm.Body) stm.Body {
	return func(tx stm.Tx, age int) {
		tr[age] = tr[age][:0]
		body(tracingTx{tx, &tr[age]}, age)
	}
}

type tracingTx struct {
	stm.Tx
	reads *[]uint64
}

func (t tracingTx) Read(v *stm.Var) uint64 {
	x := t.Tx.Read(v)
	*t.reads = append(*t.reads, x)
	return x
}

// divergence compares a run against the sequential one: it names the
// lowest age whose committed reads differ, or — when every age read
// what it read sequentially — the first variable left different. It
// returns "" when the run matches.
func (tr readTrace) divergence(seq readTrace, got, want []uint64) string {
	for age := range seq {
		if !slices.Equal(tr[age], seq[age]) {
			return fmt.Sprintf("lowest divergent age %d read %v, sequentially %v", age, tr[age], seq[age])
		}
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("every age read its sequential values, yet var %d = %#x, want %#x", i, got[i], want[i])
		}
	}
	return ""
}

// TestQuickACOEquivalence is the property-based form of the central
// oracle: for arbitrary seeds, a random transactional program run by
// a randomly chosen ordered engine with a random worker count leaves
// memory identical to the sequential run.
func TestQuickACOEquivalence(t *testing.T) {
	ordered := stm.OrderedAlgorithms()
	prop := func(seed uint64, algPick, workerPick uint8) bool {
		alg := ordered[int(algPick)%len(ordered)]
		workers := []int{2, 3, 5, 8}[workerPick%4]
		const n = 60
		vars := stm.NewVars(10)
		body := yieldingBody(seed, vars, 6)

		seq := make(readTrace, n)
		mustRun(t, stm.Config{Algorithm: stm.Sequential}, n, seq.record(body))
		want := snapshot(vars)

		resetVars(vars)
		tr := make(readTrace, n)
		mustRun(t, stm.Config{Algorithm: alg, Workers: workers}, n, tr.record(body))
		if d := tr.divergence(seq, snapshot(vars), want); d != "" {
			t.Logf("%v seed=%d workers=%d: %s", alg, seed, workers, d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMonotonicCounter: arbitrary per-age increments must sum
// exactly, under an arbitrary ordered engine.
func TestQuickMonotonicCounter(t *testing.T) {
	ordered := stm.OrderedAlgorithms()
	prop := func(seed uint64, algPick uint8) bool {
		const workers = 4
		alg := ordered[int(algPick)%len(ordered)]
		v := stm.NewVar(0)
		r := rng.New(seed)
		increments := make([]uint64, 80)
		seq := make(readTrace, len(increments))
		var want uint64
		for i := range increments {
			increments[i] = r.Uint64n(1000)
			seq[i] = []uint64{want} // the sequential fold reads the running sum
			want += increments[i]
		}
		tr := make(readTrace, len(increments))
		mustRun(t, stm.Config{Algorithm: alg, Workers: workers}, len(increments), tr.record(func(tx stm.Tx, age int) {
			tx.Write(v, tx.Read(v)+increments[age])
			runtime.Gosched()
		}))
		if d := tr.divergence(seq, []uint64{v.Load()}, []uint64{want}); d != "" {
			t.Logf("%v seed=%d workers=%d: %s", alg, seed, workers, d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSwapChain: each transaction swaps two random variables; the
// multiset of values is invariant under swaps, and the exact
// arrangement must match the sequential order.
func TestQuickSwapChain(t *testing.T) {
	prop := func(seed uint64) bool {
		const nVars, nTx, workers = 8, 100, 6
		vars := stm.NewVars(nVars)
		reset := func() {
			for i := range vars {
				vars[i].Store(uint64(i) * 111)
			}
		}
		body := func(tx stm.Tx, age int) {
			r := rng.New(seed ^ rng.Mix64(uint64(age)))
			i, j := r.Intn(nVars), r.Intn(nVars)
			a, b := tx.Read(&vars[i]), tx.Read(&vars[j])
			tx.Write(&vars[i], b)
			tx.Write(&vars[j], a)
			runtime.Gosched()
		}
		reset()
		seq := make(readTrace, nTx)
		mustRun(t, stm.Config{Algorithm: stm.Sequential}, nTx, seq.record(body))
		want := snapshot(vars)
		for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
			reset()
			tr := make(readTrace, nTx)
			mustRun(t, stm.Config{Algorithm: alg, Workers: workers}, nTx, tr.record(body))
			if d := tr.divergence(seq, snapshot(vars), want); d != "" {
				t.Logf("%v seed=%d workers=%d: %s", alg, seed, workers, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultDuringReachableReexecution: a body that faults only when a
// guard is in a specific committed state must surface the fault even
// if it first appears during a validator re-execution.
func TestFaultDuringReachableReexecution(t *testing.T) {
	// Deterministic fault at a fixed age: whatever path executes age
	// 25 (worker or validator re-execution), the fault is genuine and
	// must be reported once.
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		v := stm.NewVar(0)
		ex, err := stm.NewExecutor(stm.Config{Algorithm: alg, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		_, err = ex.Run(60, func(tx stm.Tx, age int) {
			tx.Write(v, tx.Read(v)+1)
			runtime.Gosched()
			if age == 25 {
				var zero int
				_ = 1 / zero // deterministic division by zero
			}
		})
		if err == nil {
			t.Fatalf("%v: fault swallowed", alg)
		}
	}
}

// TestOrderedCommitOrderObserved records commit order via a side
// channel (safe: one append per final commit through an ordered
// variable read) and checks it is exactly 0..n-1.
func TestOrderedCommitOrderObserved(t *testing.T) {
	const n = 120
	for _, alg := range stm.OrderedAlgorithms() {
		chain := stm.NewVar(0)
		violated := stm.NewVar(0)
		mustRun(t, stm.Config{Algorithm: alg, Workers: 6}, n, func(tx stm.Tx, age int) {
			// chain must equal age at commit time: each transaction
			// increments it by exactly one in order.
			if tx.Read(chain) != uint64(age) {
				tx.Write(violated, 1)
			}
			tx.Write(chain, uint64(age)+1)
			runtime.Gosched()
		})
		if chain.Load() != n {
			t.Fatalf("%v: chain = %d, want %d", alg, chain.Load(), n)
		}
		if violated.Load() != 0 {
			t.Fatalf("%v: a transaction observed an out-of-order chain value", alg)
		}
	}
}

// TestHugeWindowAndTinyTable: extreme configurations must still be
// correct.
func TestHugeWindowAndTinyTable(t *testing.T) {
	const seed, n, workers = 3, 150, 4
	vars := stm.NewVars(16)
	body := yieldingBody(seed, vars, 5)
	seq := make(readTrace, n)
	mustRun(t, stm.Config{Algorithm: stm.Sequential}, n, seq.record(body))
	want := snapshot(vars)
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		resetVars(vars)
		tr := make(readTrace, n)
		mustRun(t, stm.Config{
			Algorithm: alg, Workers: workers, Window: 10000, TableBits: 4, SpinBudget: 2,
		}, n, tr.record(body))
		if d := tr.divergence(seq, snapshot(vars), want); d != "" {
			t.Errorf("%v seed=%d workers=%d: %s", alg, seed, workers, d)
		}
	}
}
