// Bank: concurrent money transfers with a conservation invariant on
// typed accounts, executed under every ordered algorithm of the
// library. Each transfer is a value-returning transaction (the typed
// API): it returns the amount actually moved, and the per-algorithm
// sums of those returned values must agree — demonstrating choosing
// algorithms, reading per-cause abort statistics, the TVar[uint64]
// account type, and that the ordered engines agree bit-for-bit on
// both final state and per-transaction results.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/orderedstm/ostm/stm"
)

const (
	accounts = 64
	initial  = 1_000
	nTx      = 20000
)

// transferFn builds the deterministic transfer for one age and
// returns the moved amount (0 when the balance is insufficient).
func transferFn(balances []stm.TVar[uint64], age int) stm.Func[uint64] {
	return func(tx stm.Tx, _ int) uint64 {
		h := uint64(age) * 0x9E3779B97F4A7C15
		from := int(h % accounts)
		to := int((h >> 20) % accounts)
		amount := h >> 58 // 0..63
		b := stm.ReadT(tx, &balances[from])
		if b < amount {
			return 0
		}
		stm.WriteT(tx, &balances[from], b-amount)
		stm.WriteT(tx, &balances[to], stm.ReadT(tx, &balances[to])+amount)
		return amount
	}
}

func main() {
	ctx := context.Background()
	balances := stm.NewTVars[uint64](accounts)

	var refState []uint64
	var refMoved uint64
	for _, alg := range append([]stm.Algorithm{stm.Sequential}, stm.OrderedAlgorithms()...) {
		for i := range balances {
			balances[i].Store(initial)
		}
		p, err := stm.NewPipeline(stm.Config{Algorithm: alg, Workers: 8})
		if err != nil {
			log.Fatal(err)
		}
		tickets := make([]*stm.TicketOf[uint64], nTx)
		for age := 0; age < nTx; age++ {
			if tickets[age], err = stm.SubmitFunc(ctx, p, transferFn(balances, age)); err != nil {
				log.Fatal(err)
			}
		}
		var moved uint64
		for _, t := range tickets {
			amt, err := t.Value()
			if err != nil {
				log.Fatal(err)
			}
			moved += amt
		}
		stats := p.Stats()
		if err := p.Close(); err != nil {
			log.Fatal(err)
		}

		var total uint64
		state := make([]uint64, accounts)
		for i := range balances {
			state[i] = balances[i].Load()
			total += state[i]
		}
		if total != accounts*initial {
			log.Fatalf("%v: money not conserved: %d", alg, total)
		}
		match := "reference"
		if refState == nil {
			refState, refMoved = state, moved
		} else {
			match = "MATCH"
			if moved != refMoved {
				match = "MISMATCH(results)"
			}
			for i := range state {
				if state[i] != refState[i] {
					match = "MISMATCH(state)"
				}
			}
		}
		fmt.Printf("%-22s  moved=%-8d aborts=%-6d  %s\n",
			alg, moved, stats.TotalAborts(), match)
	}
}
