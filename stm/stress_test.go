package stm_test

import (
	"runtime"
	"sync"
	"testing"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
)

// yieldingBody is like randomBody but yields the processor between
// accesses, forcing transaction interleaving even on GOMAXPROCS=1
// hosts. This is the strongest single-core exerciser of forwarding,
// cascading aborts and reachable re-execution.
func yieldingBody(seed uint64, vars []stm.Var, ops int) stm.Body {
	return func(tx stm.Tx, age int) {
		r := rng.New(seed ^ rng.Mix64(uint64(age)))
		acc := uint64(age) + 1
		for op := 0; op < ops; op++ {
			i := r.Intn(len(vars))
			switch r.Intn(4) {
			case 0, 1:
				acc += tx.Read(&vars[i])
			case 2:
				tx.Write(&vars[i], acc^r.Uint64())
			case 3:
				tx.Write(&vars[i], tx.Read(&vars[i])+acc)
			}
			runtime.Gosched()
		}
	}
}

// TestACOEquivalenceInterleaved is the oracle under forced
// interleaving: heavy overlap, few variables, every ordered engine,
// several seeds and worker counts.
func TestACOEquivalenceInterleaved(t *testing.T) {
	const (
		nVars = 6
		nTx   = 150
		ops   = 8
	)
	for _, seed := range []uint64{2, 77} {
		vars := stm.NewVars(nVars)
		body := yieldingBody(seed, vars, ops)

		resetVars(vars)
		seq := make(readTrace, nTx)
		mustRun(t, stm.Config{Algorithm: stm.Sequential}, nTx, seq.record(body))
		want := snapshot(vars)

		for _, alg := range stm.OrderedAlgorithms() {
			for _, workers := range []int{2, 4, 8, 16} {
				resetVars(vars)
				tr := make(readTrace, nTx)
				res := mustRun(t, stm.Config{Algorithm: alg, Workers: workers}, nTx, tr.record(body))
				if d := tr.divergence(seq, snapshot(vars), want); d != "" {
					t.Fatalf("%v seed=%d workers=%d: %s (stats: %v)", alg, seed, workers, d, res.Stats)
				}
			}
		}
	}
}

// TestInterleavedConflictsObserved double-checks the interleaving
// actually produces conflicts for the optimistic ordered engines (a
// silent no-overlap run would make the equivalence tests vacuous).
func TestInterleavedConflictsObserved(t *testing.T) {
	vars := stm.NewVars(4)
	body := yieldingBody(5, vars, 10)
	var totalAborts uint64
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		resetVars(vars)
		res := mustRun(t, stm.Config{Algorithm: alg, Workers: 8}, 200, body)
		totalAborts += res.Stats.TotalAborts()
	}
	if totalAborts == 0 {
		t.Fatal("no aborts across contended interleaved runs; oracle is vacuous")
	}
}

// TestSmallWindowThrottle exercises the Algorithm 5 throttle with a
// tiny run-ahead window.
func TestSmallWindowThrottle(t *testing.T) {
	vars := stm.NewVars(8)
	body := yieldingBody(9, vars, 6)
	resetVars(vars)
	mustRun(t, stm.Config{Algorithm: stm.Sequential}, 120, body)
	want := snapshot(vars)
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		resetVars(vars)
		mustRun(t, stm.Config{Algorithm: alg, Workers: 4, Window: 8}, 120, body)
		got := snapshot(vars)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: var %d diverged", alg, i)
			}
		}
	}
}

// TestTinyLockTableAliasing forces heavy lock aliasing (4-bit table)
// and checks correctness is preserved (only performance may suffer).
func TestTinyLockTableAliasing(t *testing.T) {
	vars := stm.NewVars(64)
	body := yieldingBody(13, vars, 6)
	resetVars(vars)
	mustRun(t, stm.Config{Algorithm: stm.Sequential}, 150, body)
	want := snapshot(vars)
	for _, alg := range stm.OrderedAlgorithms() {
		resetVars(vars)
		mustRun(t, stm.Config{Algorithm: alg, Workers: 6, TableBits: 4}, 150, body)
		got := snapshot(vars)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v with 16-entry lock table: var %d diverged", alg, i)
			}
		}
	}
}

// TestFewReaderSlots stresses the bounded visible-reader arrays
// (readers must wait for slots, never crash or misread).
func TestFewReaderSlots(t *testing.T) {
	vars := stm.NewVars(2)
	body := yieldingBody(21, vars, 5)
	resetVars(vars)
	mustRun(t, stm.Config{Algorithm: stm.Sequential}, 100, body)
	want := snapshot(vars)
	for _, alg := range []stm.Algorithm{stm.OUL, stm.OrderedUndoLogVis} {
		resetVars(vars)
		mustRun(t, stm.Config{Algorithm: alg, Workers: 8, MaxReaders: 2}, 100, body)
		got := snapshot(vars)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v with 2 reader slots: var %d diverged", alg, i)
			}
		}
	}
}

// TestPipelineStressConcurrentProducers is the streaming stress
// variant (kept -race-clean; CI runs this package under the race
// detector): several producer goroutines submit conflicting
// bank-transfer bodies into one pipeline while a drainer and a stats
// reader poke at it concurrently. Submission interleaving is
// nondeterministic, so the oracle is the conservation invariant
// rather than a sequential replay.
func TestPipelineStressConcurrentProducers(t *testing.T) {
	const (
		producers   = 4
		perProducer = 250
		accounts    = 8
		initial     = 1000
	)
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2, stm.STMLite} {
		t.Run(alg.String(), func(t *testing.T) {
			vars := stm.NewVars(accounts)
			for i := range vars {
				vars[i].Store(initial)
			}
			p, err := stm.NewPipeline(stm.Config{
				Algorithm: alg, Workers: 8, Window: 8, Capacity: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for pr := 0; pr < producers; pr++ {
				wg.Add(1)
				go func(pr int) {
					defer wg.Done()
					r := rng.New(uint64(pr)*977 + 11)
					for i := 0; i < perProducer; i++ {
						from := r.Intn(accounts)
						to := r.Intn(accounts)
						amt := uint64(r.Intn(40))
						tk, err := p.Submit(func(tx stm.Tx, age int) {
							b := tx.Read(&vars[from])
							if b >= amt {
								tx.Write(&vars[from], b-amt)
								tx.Write(&vars[to], tx.Read(&vars[to])+amt)
							}
							runtime.Gosched()
						})
						if err != nil {
							t.Errorf("producer %d submit: %v", pr, err)
							return
						}
						if i%16 == 0 {
							if err := tk.Wait(); err != nil {
								t.Errorf("producer %d wait: %v", pr, err)
								return
							}
						}
					}
				}(pr)
			}
			done := make(chan struct{})
			go func() { // concurrent observers
				for {
					select {
					case <-done:
						return
					default:
						_ = p.Stats()
						_ = p.InFlight()
						runtime.Gosched()
					}
				}
			}()
			wg.Wait()
			if err := p.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			close(done)
			if err := p.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := p.Committed(); got != producers*perProducer {
				t.Fatalf("committed %d, want %d", got, producers*perProducer)
			}
			var total uint64
			for i := range vars {
				total += vars[i].Load()
			}
			if total != accounts*initial {
				t.Fatalf("%v: total %d, want %d (money lost or duplicated)", alg, total, accounts*initial)
			}
		})
	}
}

// TestRepeatedRunsSameExecutor checks an Executor is reusable and
// runs are independent.
func TestRepeatedRunsSameExecutor(t *testing.T) {
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.OUL, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	v := stm.NewVar(0)
	for round := 0; round < 5; round++ {
		v.Store(0)
		res, err := ex.Run(50, func(tx stm.Tx, age int) {
			tx.Write(v, tx.Read(v)+1)
			runtime.Gosched()
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.N != 50 || v.Load() != 50 {
			t.Fatalf("round %d: n=%d v=%d", round, res.N, v.Load())
		}
	}
}
