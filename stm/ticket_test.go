package stm_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"github.com/orderedstm/ostm/stm"
)

func latchPipeline(t *testing.T) *stm.Pipeline {
	t.Helper()
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestTicketResolveRacesWaiters lets the commit that resolves a ticket
// race goroutines entering it through Wait, WaitCtx, Err and Done. All
// of them must come out with the commit's outcome and — the DESIGN §10
// value latch — the committing attempt's value, with no channel or
// lock between resolver and reader but the ticket's own state word
// (so under -race this test is the proof of that edge).
func TestTicketResolveRacesWaiters(t *testing.T) {
	p := latchPipeline(t)
	n := 2000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		tk, err := stm.SubmitFunc(p, func(_ stm.Tx, age int) uint64 { return uint64(age)*3 + 1 })
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		enter := []func() error{
			tk.Wait,
			func() error { return tk.WaitCtx(context.Background()) },
			func() error {
				for {
					if err, resolved := tk.Err(); resolved {
						return err
					}
					runtime.Gosched()
				}
			},
			func() error { <-tk.Done(); return nil },
		}
		for w, wait := range enter {
			wg.Add(1)
			go func(w int, wait func() error) {
				defer wg.Done()
				if err := wait(); err != nil {
					t.Errorf("age %d: waiter %d: %v", tk.Age(), w, err)
				}
				if err, resolved := tk.Err(); !resolved || err != nil {
					t.Errorf("age %d: waiter %d: Err after resolution = (%v, %v)", tk.Age(), w, err, resolved)
				}
				if v, err := tk.Value(); err != nil || v != tk.Age()*3+1 {
					t.Errorf("age %d: waiter %d: Value = (%d, %v)", tk.Age(), w, v, err)
				}
			}(w, wait)
		}
		wg.Wait()
	}
}

// TestTicketManyWaiters parks a crowd on one ticket whose transaction
// is held open, then lets it commit.
func TestTicketManyWaiters(t *testing.T) {
	p := latchPipeline(t)
	gate := make(chan struct{})
	tk, err := p.Submit(func(stm.Tx, int) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	const crowd = 48
	var ready, woke sync.WaitGroup
	for w := 0; w < crowd; w++ {
		ready.Add(1)
		woke.Add(1)
		go func(w int) {
			defer woke.Done()
			ready.Done()
			var err error
			switch w % 3 {
			case 0:
				err = tk.Wait()
			case 1:
				err = tk.WaitCtx(context.Background())
			case 2:
				<-tk.Done()
			}
			if err != nil {
				t.Errorf("waiter %d: %v", w, err)
			}
		}(w)
	}
	ready.Wait()
	if _, resolved := tk.Err(); resolved {
		t.Fatal("resolved while its body is still running")
	}
	close(gate)
	woke.Wait()
}

// TestTicketDoneAfterResolution: a ticket nobody watched while it was
// in flight still hands out a closed channel afterwards.
func TestTicketDoneAfterResolution(t *testing.T) {
	p := latchPipeline(t)
	tk, err := p.Submit(func(stm.Tx, int) {})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, resolved := tk.Err(); resolved {
			break
		}
		runtime.Gosched()
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("Done after resolution is not closed")
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}
