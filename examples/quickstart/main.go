// Quickstart: the typed API v2 in one file — typed transactional
// variables (TVar), value-returning transactions (SubmitFunc), and
// tickets that resolve in the predefined commit order. The parallel
// speculative execution is externally identical to running the
// submissions sequentially in age order, and each ticket's value is
// the committing attempt's result (speculative attempts are
// discarded).
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/orderedstm/ostm/stm"
)

func main() {
	// Shared typed state: a row of counters and a running weighted sum
	// whose value depends on the exact commit order.
	counters := stm.NewTVars[uint64](8)
	orderSensitive := stm.NewTVar[uint64](0)

	// Each submission is a value-returning transaction: it folds its
	// age into the order-sensitive accumulator and returns the new
	// value. Multiply-then-add makes the result depend on commit
	// order — only an execution equivalent to ages 0,1,2,... yields
	// the sequential answers.
	fnFor := func(age int) stm.Func[uint64] {
		return func(tx stm.Tx, _ int) uint64 {
			slot := &counters[age%len(counters)]
			stm.WriteT(tx, slot, stm.ReadT(tx, slot)+1)
			nv := stm.ReadT(tx, orderSensitive)*3 + uint64(age)
			stm.WriteT(tx, orderSensitive, nv)
			return nv
		}
	}

	const n = 10000
	ctx := context.Background()

	// Reference: the same transactions executed sequentially.
	seq, err := stm.NewPipeline(stm.Config{Algorithm: stm.Sequential})
	if err != nil {
		log.Fatal(err)
	}
	want := make([]uint64, n)
	for age := 0; age < n; age++ {
		t, err := stm.SubmitFunc(ctx, seq, fnFor(age))
		if err != nil {
			log.Fatal(err)
		}
		if want[age], err = t.Value(); err != nil {
			log.Fatal(err)
		}
	}
	if err := seq.Close(); err != nil {
		log.Fatal(err)
	}
	wantFinal := orderSensitive.Load()

	// Parallel speculative execution with a predefined commit order
	// (OWB, the engine the service stack defaults to), 8 workers:
	// submit the same stream, then check every ticket's typed value
	// against the sequential run.
	orderSensitive.Store(0)
	for i := range counters {
		counters[i].Store(0)
	}
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	tickets := make([]*stm.TicketOf[uint64], n)
	for age := 0; age < n; age++ {
		if tickets[age], err = stm.SubmitFunc(ctx, p, fnFor(age)); err != nil {
			log.Fatal(err)
		}
	}
	for age, t := range tickets {
		got, err := t.Value()
		if err != nil {
			log.Fatal(err)
		}
		if got != want[age] {
			log.Fatalf("MISMATCH at age %d: parallel %#x, sequential %#x", age, got, want[age])
		}
	}
	stats := p.Stats()
	if err := p.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("committed:      %d value-returning transactions (%d aborts retried)\n",
		n, stats.TotalAborts())
	fmt.Printf("order-sensitive result: %#x\n", orderSensitive.Load())
	fmt.Printf("sequential reference:   %#x\n", wantFinal)
	if orderSensitive.Load() == wantFinal {
		fmt.Println("MATCH — every ticket value and the final state equal the sequential order")
	} else {
		log.Fatal("MISMATCH — commit order was violated")
	}
}
