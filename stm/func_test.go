package stm_test

import (
	"errors"
	"sync"
	"testing"

	"github.com/orderedstm/ostm/stm"
)

// TestSubmitFuncTypedDeterminism is the typed streaming oracle: for
// every ordered algorithm, value-returning transactions submitted
// through SubmitFunc yield per-ticket results and final memory
// identical to executing the same Funcs sequentially in age order.
func TestSubmitFuncTypedDeterminism(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 1200
	}
	const lanes = 8

	// fnFor builds the age's Func: an order-sensitive fold over one
	// lane, returning the folded value (which depends on every prior
	// transaction of that lane — any ordering or latching error shows
	// up in some ticket's value).
	fnFor := func(lanesV []stm.TVar[uint64], age int) stm.Func[uint64] {
		return func(tx stm.Tx, _ int) uint64 {
			v := &lanesV[age%lanes]
			nv := stm.ReadT(tx, v)*3 + uint64(age)
			stm.WriteT(tx, v, nv)
			return nv
		}
	}

	// Sequential oracle.
	wantVals := make([]uint64, n)
	wantState := make([]uint64, lanes)
	{
		vars := stm.NewTVars[uint64](lanes)
		ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.Sequential})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Run(n, func(tx stm.Tx, age int) {
			wantVals[age] = fnFor(vars, age)(tx, age)
		}); err != nil {
			t.Fatal(err)
		}
		for i := range vars {
			wantState[i] = vars[i].Load()
		}
	}

	for _, alg := range stm.OrderedAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			vars := stm.NewTVars[uint64](lanes)
			p, err := stm.NewPipeline(stm.Config{Algorithm: alg, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			tickets := make([]*stm.TicketOf[uint64], n)
			for age := 0; age < n; age++ {
				tk, err := stm.SubmitFunc(p, fnFor(vars, age))
				if err != nil {
					t.Fatal(err)
				}
				if tk.Age() != uint64(age) {
					t.Fatalf("age %d assigned %d", age, tk.Age())
				}
				tickets[age] = tk
			}
			for age, tk := range tickets {
				got, err := tk.Value()
				if err != nil {
					t.Fatalf("age %d: %v", age, err)
				}
				if got != wantVals[age] {
					t.Fatalf("%v age %d value %d, want %d (speculative value leaked?)",
						alg, age, got, wantVals[age])
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			for i := range vars {
				if vars[i].Load() != wantState[i] {
					t.Fatalf("lane %d state %d, want %d", i, vars[i].Load(), wantState[i])
				}
			}
		})
	}
}

// TestValueLatchDiscardsAbortedAttempts is the latch oracle required
// by the redesign: under heavy single-counter contention, speculative
// attempts read stale counter values and compute results that must
// never surface. Every ticket's value has to equal the sequential
// fold (age i reads exactly i), even though aborted attempts computed
// other values along the way; the abort counter confirms speculation
// actually happened.
func TestValueLatchDiscardsAbortedAttempts(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	counter := stm.NewTVar[uint64](0)
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	fn := func(tx stm.Tx, age int) uint64 {
		v := stm.ReadT(tx, counter)
		stm.WriteT(tx, counter, v+1)
		return v
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([]uint64, n)
	tks := make([]*stm.TicketOf[uint64], n)
	for i := 0; i < n; i++ {
		tk, err := stm.SubmitFunc(p, fn)
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = tks[i].Value()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("age %d: %v", i, errs[i])
		}
		if vals[i] != uint64(i) {
			t.Fatalf("age %d latched %d — an aborted attempt's value escaped", i, vals[i])
		}
	}
	aborts := p.Stats().TotalAborts()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if counter.Load() != uint64(n) {
		t.Fatalf("counter %d, want %d", counter.Load(), n)
	}
	if aborts == 0 {
		t.Logf("note: no aborts occurred; the latch rule was not stressed this run")
	}
}

// TestTicketOfErrAndDone: the typed ticket inherits the non-blocking
// surface of Ticket.
func TestTicketOfErrAndDone(t *testing.T) {
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tk, err := stm.SubmitFunc(p, func(tx stm.Tx, age int) int64 { return int64(age) + 40 })
	if err != nil {
		t.Fatal(err)
	}
	<-tk.Done()
	if werr, resolved := tk.Err(); !resolved || werr != nil {
		t.Fatalf("Err() = %v, %v after Done", werr, resolved)
	}
	v, err := tk.Value()
	if err != nil || v != 40 {
		t.Fatalf("Value() = %d, %v", v, err)
	}
}

// TestStoppedSentinel: a pipeline stopped by a fault resolves
// bystander tickets with *Stopped, which must match ErrStopped via
// errors.Is, expose the fault via errors.As, and be observable
// through Err/Done without blocking.
func TestStoppedSentinel(t *testing.T) {
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	// A bystander parked behind the faulting age (its body blocks until
	// the fault has landed, so it cannot commit first).
	bystander, err := stm.SubmitFunc(p, func(tx stm.Tx, age int) uint64 {
		<-gate
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	faulty, err := p.Submit(func(tx stm.Tx, age int) { panic(boom) })
	if err != nil {
		t.Fatal(err)
	}
	ferr := faulty.Wait()
	var f *stm.Fault
	if !errors.As(ferr, &f) {
		t.Fatalf("faulting ticket resolved with %v, want *Fault", ferr)
	}
	close(gate)

	// The bystander resolves with *Stopped; Done closes and Err peeks
	// without blocking.
	<-bystander.Done()
	serr, resolved := bystander.Err()
	if !resolved {
		t.Fatal("Err() must report resolution after Done closes")
	}
	if !errors.Is(serr, stm.ErrStopped) {
		t.Fatalf("errors.Is(%v, ErrStopped) = false", serr)
	}
	if !errors.Is(serr, boom) {
		t.Fatalf("Stopped must unwrap to the fault cause, got %v", serr)
	}
	if _, verr := bystander.Value(); !errors.Is(verr, stm.ErrStopped) {
		t.Fatalf("Value() error %v must match ErrStopped", verr)
	}
	// Submit after the stop reports Stopped too.
	if _, err := p.Submit(func(stm.Tx, int) {}); !errors.Is(err, stm.ErrStopped) {
		t.Fatalf("post-stop Submit error %v must match ErrStopped", err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close after fault must report it")
	}
}
