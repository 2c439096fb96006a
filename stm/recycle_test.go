package stm_test

import (
	"context"
	"testing"

	"github.com/orderedstm/ostm/stm"
)

// TestRecyclingDeterminism is the descriptor-recycling safety oracle:
// under the most aggressive reuse pressure the pipeline can produce —
// a tiny run-ahead window and capacity (so a retired descriptor is
// renewed almost immediately), a small high-contention account pool
// (so attempts constantly abort and kill readers, leaving stale
// references in lock words and reader slots) — every ordered
// algorithm must still produce final memory and per-ticket results
// identical to the sequential in-age-order execution. Any
// stale-generation descriptor ever being honored (the ABA the
// generation stamps exist to prevent: a recycled descriptor's old
// reference treated as its live registration, or a claim CAS landing
// on its new life's lock) shows up here as a divergent result or a
// rolled-back-into-corruption account. Run with -race in CI.
func TestRecyclingDeterminism(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 1200
	}
	cmds := genStreamCmds(0xDECAF, n, streamAccounts)
	wantState, wantResults := runStreamSequential(t, cmds)

	for _, alg := range stm.OrderedAlgorithms() {
		for _, batched := range []bool{false, true} {
			name := alg.String()
			if batched {
				name += "/batch"
			}
			t.Run(name, func(t *testing.T) {
				accounts := stm.NewVars(streamAccounts)
				initAccounts(accounts)
				results := make([]uint64, n)
				p, err := stm.NewPipeline(stm.Config{
					Algorithm: alg,
					Workers:   4,
					Window:    4,
				})
				if err != nil {
					t.Fatal(err)
				}
				tickets := make([]*stm.Ticket, 0, n)
				if batched {
					const chunk = 32
					reqs := make([]stm.Request, 0, chunk)
					for at := 0; at < n; at += chunk {
						end := at + chunk
						if end > n {
							end = n
						}
						reqs = reqs[:0]
						for i := at; i < end; i++ {
							reqs = append(reqs, stm.Request{Body: streamBody(cmds[i], accounts, results, i)})
						}
						tks, err := p.SubmitBatch(context.Background(), reqs, nil)
						if err != nil {
							t.Fatalf("SubmitBatch at %d: %v", at, err)
						}
						tickets = append(tickets, tks...)
					}
				} else {
					for i, c := range cmds {
						tk, err := p.Submit(streamBody(c, accounts, results, i))
						if err != nil {
							t.Fatalf("Submit age %d: %v", i, err)
						}
						tickets = append(tickets, tk)
					}
				}
				if err := p.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				for i, tk := range tickets {
					if tk.Age() != uint64(i) {
						t.Fatalf("ticket %d carries age %d", i, tk.Age())
					}
					if err := tk.Wait(); err != nil {
						t.Fatalf("ticket %d: %v", i, err)
					}
				}
				gotState := snapshot(accounts)
				for i := range wantState {
					if gotState[i] != wantState[i] {
						t.Fatalf("account %d diverged under recycling: got %d want %d (stats %v)",
							i, gotState[i], wantState[i], p.Stats())
					}
				}
				for i := range wantResults {
					if results[i] != wantResults[i] {
						t.Fatalf("per-ticket result %d diverged under recycling: got %d want %d",
							i, results[i], wantResults[i])
					}
				}
			})
		}
	}
}

// TestRecyclingMatchesFresh cross-checks the recycling and
// fresh-descriptor executions of an identical stream: committed
// results must not depend on whether descriptors are reused. (Both
// sides are already checked against the sequential oracle above; this
// pins the two modes to each other on a second command stream and
// exercises the FreshDescriptors escape hatch.)
func TestRecyclingMatchesFresh(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 600
	}
	cmds := genStreamCmds(0xFEED5EED, n, streamAccounts)
	run := func(fresh bool) ([]uint64, []uint64) {
		accounts := stm.NewVars(streamAccounts)
		initAccounts(accounts)
		results := make([]uint64, n)
		p, err := stm.NewPipeline(stm.Config{
			Algorithm:        stm.OUL,
			Workers:          4,
			Window:           4,
			FreshDescriptors: fresh,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cmds {
			if _, err := p.Submit(streamBody(c, accounts, results, i)); err != nil {
				t.Fatalf("Submit age %d: %v", i, err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return snapshot(accounts), results
	}
	recState, recResults := run(false)
	freshState, freshResults := run(true)
	for i := range recState {
		if recState[i] != freshState[i] {
			t.Fatalf("account %d: recycled %d != fresh %d", i, recState[i], freshState[i])
		}
	}
	for i := range recResults {
		if recResults[i] != freshResults[i] {
			t.Fatalf("result %d: recycled %d != fresh %d", i, recResults[i], freshResults[i])
		}
	}
}
