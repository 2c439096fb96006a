package stm_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
)

// mustRun builds an executor and runs a batch, failing the test on any
// error.
func mustRun(t *testing.T, cfg stm.Config, n int, body stm.Body) stm.Result {
	t.Helper()
	ex, err := stm.NewExecutor(cfg)
	if err != nil {
		t.Fatalf("NewExecutor(%v): %v", cfg.Algorithm, err)
	}
	res, err := ex.Run(n, body)
	if err != nil {
		t.Fatalf("%v Run: %v", cfg.Algorithm, err)
	}
	return res
}

func snapshot(vars []stm.Var) []uint64 {
	out := make([]uint64, len(vars))
	for i := range vars {
		out[i] = vars[i].Load()
	}
	return out
}

func resetVars(vars []stm.Var) {
	for i := range vars {
		vars[i].Store(0)
	}
}

// randomBody returns a deterministic random transaction program:
// data-dependent reads and writes over vars, so any ordering mistake
// corrupts downstream values.
func randomBody(seed uint64, vars []stm.Var, ops int) stm.Body {
	return func(tx stm.Tx, age int) {
		r := rng.New(seed ^ rng.Mix64(uint64(age)))
		acc := uint64(age) + 1
		for op := 0; op < ops; op++ {
			i := r.Intn(len(vars))
			if r.Intn(100) < 55 {
				acc += tx.Read(&vars[i])
			} else {
				tx.Write(&vars[i], acc^r.Uint64())
			}
		}
	}
}

// TestACOEquivalence is the central oracle: under every
// order-enforcing algorithm, each committed age must read what it read
// in the sequential in-age-order execution and leave memory
// byte-identical to it, for any worker count.
func TestACOEquivalence(t *testing.T) {
	const (
		nVars = 64
		nTx   = 400
		ops   = 12
	)
	for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
		vars := stm.NewVars(nVars)
		body := randomBody(seed, vars, ops)

		resetVars(vars)
		seq := make(readTrace, nTx)
		mustRun(t, stm.Config{Algorithm: stm.Sequential}, nTx, seq.record(body))
		want := snapshot(vars)

		for _, alg := range stm.OrderedAlgorithms() {
			for _, workers := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%v/w%d/seed%d", alg, workers, seed)
				t.Run(name, func(t *testing.T) {
					resetVars(vars)
					tr := make(readTrace, nTx)
					res := mustRun(t, stm.Config{Algorithm: alg, Workers: workers}, nTx, tr.record(body))
					if res.N != nTx {
						t.Fatalf("committed %d of %d", res.N, nTx)
					}
					if d := tr.divergence(seq, snapshot(vars), want); d != "" {
						t.Fatalf("%v seed=%d workers=%d: %s (stats: %v)", alg, seed, workers, d, res.Stats)
					}
				})
			}
		}
	}
}

// TestACOEquivalenceHighContention stresses the same oracle with few
// variables and long transactions (many forwarding chains and
// cascading aborts).
func TestACOEquivalenceHighContention(t *testing.T) {
	const (
		seed    = 7
		nVars   = 4
		nTx     = 250
		ops     = 10
		workers = 8
	)
	vars := stm.NewVars(nVars)
	body := randomBody(seed, vars, ops)

	resetVars(vars)
	seq := make(readTrace, nTx)
	mustRun(t, stm.Config{Algorithm: stm.Sequential}, nTx, seq.record(body))
	want := snapshot(vars)

	for _, alg := range stm.OrderedAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			resetVars(vars)
			tr := make(readTrace, nTx)
			res := mustRun(t, stm.Config{Algorithm: alg, Workers: workers}, nTx, tr.record(body))
			if d := tr.divergence(seq, snapshot(vars), want); d != "" {
				t.Fatalf("%v seed=%d workers=%d: %s (stats: %v)", alg, seed, workers, d, res.Stats)
			}
		})
	}
}

// TestUnorderedConservation checks the unordered algorithms with a
// commutative workload: increments to random counters must conserve
// the grand total regardless of commit order.
func TestUnorderedConservation(t *testing.T) {
	const (
		nVars = 32
		nTx   = 500
	)
	for _, alg := range []stm.Algorithm{stm.TL2, stm.NOrec, stm.UndoLogVis, stm.UndoLogInvis} {
		t.Run(alg.String(), func(t *testing.T) {
			vars := stm.NewVars(nVars)
			body := func(tx stm.Tx, age int) {
				r := rng.New(uint64(age) * 31)
				for k := 0; k < 4; k++ {
					v := &vars[r.Intn(nVars)]
					tx.Write(v, tx.Read(v)+1)
				}
			}
			res := mustRun(t, stm.Config{Algorithm: alg, Workers: 8}, nTx, body)
			if res.N != nTx {
				t.Fatalf("committed %d of %d", res.N, nTx)
			}
			var total uint64
			for i := range vars {
				total += vars[i].Load()
			}
			if total != uint64(nTx*4) {
				t.Fatalf("total %d, want %d (lost or duplicated increments; stats %v)",
					total, nTx*4, res.Stats)
			}
		})
	}
}

// TestBankInvariant moves money between accounts under every
// algorithm; the total balance must be conserved at the end.
func TestBankInvariant(t *testing.T) {
	const (
		accounts = 16
		initial  = 1000
		nTx      = 600
	)
	for _, alg := range stm.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			vars := stm.NewVars(accounts)
			for i := range vars {
				vars[i].Store(initial)
			}
			body := func(tx stm.Tx, age int) {
				r := rng.New(uint64(age)*17 + 3)
				from := r.Intn(accounts)
				to := r.Intn(accounts)
				amount := uint64(r.Intn(50))
				b := tx.Read(&vars[from])
				if b >= amount {
					tx.Write(&vars[from], b-amount)
					tx.Write(&vars[to], tx.Read(&vars[to])+amount)
				}
			}
			mustRun(t, stm.Config{Algorithm: alg, Workers: 6}, nTx, body)
			var total uint64
			for i := range vars {
				total += vars[i].Load()
			}
			if total != accounts*initial {
				t.Fatalf("total balance %d, want %d", total, accounts*initial)
			}
		})
	}
}

// TestReadYourOwnWrites checks RYW inside a single transaction for
// every algorithm.
func TestReadYourOwnWrites(t *testing.T) {
	for _, alg := range stm.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			v := stm.NewVar(5)
			var seen uint64
			mustRun(t, stm.Config{Algorithm: alg, Workers: 2}, 1, func(tx stm.Tx, age int) {
				tx.Write(v, 77)
				seen = tx.Read(v)
			})
			if seen != 77 {
				t.Fatalf("read-your-own-write returned %d, want 77", seen)
			}
			if got := v.Load(); got != 77 {
				t.Fatalf("final value %d, want 77", got)
			}
		})
	}
}

// TestAges checks every age is presented exactly once and matches
// Tx.Age.
func TestAges(t *testing.T) {
	const nTx = 200
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2, stm.STMLite} {
		t.Run(alg.String(), func(t *testing.T) {
			vars := stm.NewVars(nTx)
			mustRun(t, stm.Config{Algorithm: alg, Workers: 4}, nTx, func(tx stm.Tx, age int) {
				if tx.Age() != uint64(age) {
					panic("age mismatch")
				}
				tx.Write(&vars[age], tx.Read(&vars[age])+1)
			})
			for i := range vars {
				if vars[i].Load() != 1 {
					t.Fatalf("age %d committed %d times", i, vars[i].Load())
				}
			}
		})
	}
}

// TestFaultPropagation: a deterministic fault (one a sequential run
// would also hit) must surface as a *stm.Fault with the right age.
func TestFaultPropagation(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.Sequential, stm.OWB, stm.OUL, stm.OrderedTL2} {
		t.Run(alg.String(), func(t *testing.T) {
			ex, err := stm.NewExecutor(stm.Config{Algorithm: alg, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			_, err = ex.Run(100, func(tx stm.Tx, age int) {
				if age == 37 {
					panic("boom")
				}
			})
			var f *stm.Fault
			if !errors.As(err, &f) {
				t.Fatalf("expected *Fault, got %v", err)
			}
			if f.Age != 37 || f.Value != "boom" {
				t.Fatalf("fault = %+v", f)
			}
		})
	}
}

// TestSandboxSpeculativeFault: a fault that only occurs on stale
// speculative state (division by zero guarded in the committed state)
// must be retried, not reported.
func TestSandboxSpeculativeFault(t *testing.T) {
	const nTx = 300
	for _, alg := range stm.OrderedAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			guard := stm.NewVar(1) // never zero in any committed state
			sum := stm.NewVar(0)
			body := func(tx stm.Tx, age int) {
				g := tx.Read(guard)
				// Flicker the guard through 0 inside the transaction;
				// a stale read of the intermediate state by a
				// concurrent transaction triggers division by zero.
				tx.Write(guard, 0)
				tx.Write(guard, g+1)
				tx.Write(sum, tx.Read(sum)+1024/g)
			}
			res := mustRun(t, stm.Config{Algorithm: alg, Workers: 8, RetryUnknownPanics: true}, nTx, body)
			if res.N != nTx {
				t.Fatalf("committed %d of %d", res.N, nTx)
			}
			if got := guard.Load(); got != nTx+1 {
				t.Fatalf("guard = %d, want %d", got, nTx+1)
			}
		})
	}
}

// TestEmptyAndSmallRuns covers the n=0 and n=1 edges.
func TestEmptyAndSmallRuns(t *testing.T) {
	for _, alg := range stm.Algorithms() {
		res := mustRun(t, stm.Config{Algorithm: alg, Workers: 3}, 0, func(tx stm.Tx, age int) {})
		if res.N != 0 {
			t.Fatalf("%v: n=0 committed %d", alg, res.N)
		}
		v := stm.NewVar(0)
		res = mustRun(t, stm.Config{Algorithm: alg, Workers: 3}, 1, func(tx stm.Tx, age int) {
			tx.Write(v, 9)
		})
		if res.N != 1 || v.Load() != 9 {
			t.Fatalf("%v: n=1 res=%+v v=%d", alg, res, v.Load())
		}
	}
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := stm.NewExecutor(stm.Config{Algorithm: stm.Algorithm(99)}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.OUL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(-1, func(tx stm.Tx, age int) {}); err == nil {
		t.Fatal("expected error for negative n")
	}
	if _, err := ex.Run(1, nil); err == nil {
		t.Fatal("expected error for nil body")
	}
}

// TestWorkerSweep runs a moderately contended workload across worker
// counts for the contributed algorithms (smoke test for the
// thread-count dimension used throughout the evaluation).
func TestWorkerSweep(t *testing.T) {
	const nTx = 300
	vars := stm.NewVars(8)
	body := randomBody(99, vars, 6)
	resetVars(vars)
	mustRun(t, stm.Config{Algorithm: stm.Sequential}, nTx, body)
	want := snapshot(vars)
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		for workers := 1; workers <= 16; workers *= 2 {
			resetVars(vars)
			mustRun(t, stm.Config{Algorithm: alg, Workers: workers}, nTx, body)
			got := snapshot(vars)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v w=%d: var %d got %#x want %#x", alg, workers, i, got[i], want[i])
				}
			}
		}
	}
}
