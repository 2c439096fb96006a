package stm_test

import (
	"context"
	"errors"
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
		tk, err := stm.SubmitFunc(context.Background(), p, func(_ stm.Tx, age int) uint64 { return uint64(age)*3 + 1 })
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

// TestCallerTicketReuse walks one caller-owned ticket through several
// submissions: a commit, a life whose Done channel was taken while it
// was in flight, a *Stopped resolution, and a commit on another
// pipeline after it. While a life is in flight, every way of
// submitting the ticket again is refused and the life keeps its age.
func TestCallerTicketReuse(t *testing.T) {
	p := latchPipeline(t)
	var tk stm.Ticket
	nop := func(stm.Tx, int) {}

	got, err := p.SubmitCtx(context.Background(), stm.Request{Body: nop, Ticket: &tk})
	if err != nil || got != &tk {
		t.Fatalf("SubmitCtx with a fresh ticket returned (%p, %v), want (%p, nil)", got, err, &tk)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}

	// Second life: held open, its Done channel taken.
	gate := make(chan struct{})
	if _, err := p.SubmitCtx(nil, stm.Request{Body: func(stm.Tx, int) { <-gate }, Ticket: &tk}); err != nil {
		t.Fatal(err)
	}
	age, done := tk.Age(), tk.Done()
	submitted := p.Submitted()
	if _, err := p.SubmitCtx(nil, stm.Request{Body: nop, Ticket: &tk}); err == nil {
		t.Fatal("SubmitCtx accepted a ticket still in flight")
	}
	if out, err := p.SubmitBatch(nil, []stm.Request{{Body: nop}, {Body: nop, Ticket: &tk}}, nil); err == nil || len(out) != 0 {
		t.Fatalf("SubmitBatch with a ticket in flight returned (%d tickets, %v), want the whole batch refused", len(out), err)
	}
	if p.Submitted() != submitted || tk.Age() != age {
		t.Fatalf("a refused resubmission moved the stream (%d → %d submitted) or the ticket (age %d → %d)", submitted, p.Submitted(), age, tk.Age())
	}
	if _, resolved := tk.Err(); resolved {
		t.Fatal("the held life resolved before its body finished")
	}
	close(gate)
	<-done
	if err := tk.Wait(); err != nil || tk.Age() != age {
		t.Fatalf("held life: age %d, err %v; want age %d, nil", tk.Age(), err, age)
	}

	// Third life: the next one's Done is a channel of its own; then the
	// same ticket twice in one batch stops the batch at the second.
	gate = make(chan struct{})
	if _, err := p.SubmitCtx(nil, stm.Request{Body: func(stm.Tx, int) { <-gate }, Ticket: &tk}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
		t.Fatal("the new life's Done channel is already closed")
	default:
	}
	close(gate)
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	var other stm.Ticket
	out, err := p.SubmitBatch(nil, []stm.Request{{Body: nop, Ticket: &other}, {Body: nop, Ticket: &other}}, nil)
	if err == nil || len(out) != 1 || out[0] != &other {
		t.Fatalf("a batch naming one ticket twice returned (%v, %v), want the first accepted and an error", out, err)
	}
	if err := other.Wait(); err != nil {
		t.Fatal(err)
	}

	// Fourth life: resolved *Stopped behind a genuine fault.
	gate = make(chan struct{})
	if _, err := p.Submit(func(stm.Tx, int) { <-gate; panic("fault") }); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitCtx(nil, stm.Request{Body: nop, Ticket: &tk}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := tk.Wait(); !errors.Is(err, stm.ErrStopped) {
		t.Fatalf("ticket behind a fault resolved with %v, want *Stopped", err)
	}

	// Fifth life, on another pipeline: a commit leaves no trace of the
	// previous life's error.
	q := latchPipeline(t)
	if _, err := q.SubmitCtx(nil, stm.Request{Body: nop, Ticket: &tk}); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil || tk.Age() != 0 {
		t.Fatalf("reused after *Stopped: age %d, err %v; want age 0, nil", tk.Age(), err)
	}
	if err, resolved := tk.Err(); !resolved || err != nil {
		t.Fatalf("Err after the commit = (%v, %v)", err, resolved)
	}
}

// TestCallerTicketsRecycleUnderLoad: producers submit batches of their
// own tickets, wait for them, and submit the same tickets again, while
// a watcher selects on some of them. Every life must report its own
// age and a commit; under -race this is the proof that a resolved
// ticket's next life is published to its waiters.
func TestCallerTicketsRecycleUnderLoad(t *testing.T) {
	p := latchPipeline(t)
	counter := stm.NewVar(0)
	body := func(tx stm.Tx, _ int) { tx.Write(counter, tx.Read(counter)+1) }
	const producers, batch = 3, 8
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tickets := make([]stm.Ticket, batch)
			reqs := make([]stm.Request, batch)
			for i := range reqs {
				reqs[i] = stm.Request{Body: body, Ticket: &tickets[i]}
			}
			var out []*stm.Ticket
			last := make([]uint64, batch)
			for r := 0; r < rounds; r++ {
				var err error
				if out, err = p.SubmitBatch(context.Background(), reqs, out[:0]); err != nil {
					t.Errorf("producer %d round %d: %v", w, r, err)
					return
				}
				for i, tk := range out {
					if tk != &tickets[i] {
						t.Errorf("producer %d: position %d returned another ticket", w, i)
						return
					}
					if i > 0 && tk.Age() != out[i-1].Age()+1 {
						t.Errorf("producer %d round %d: ages %d, %d are not consecutive", w, r, out[i-1].Age(), tk.Age())
					}
					if r > 0 && tk.Age() <= last[i] {
						t.Errorf("producer %d round %d: ticket %d went from age %d to %d", w, r, i, last[i], tk.Age())
					}
					last[i] = tk.Age()
				}
				<-out[0].Done() // a channel made on this life
				for i, tk := range out {
					if err := tk.WaitCtx(context.Background()); err != nil {
						t.Errorf("producer %d round %d ticket %d: %v", w, r, i, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := counter.Load(), uint64(producers*batch*rounds); got != want {
		t.Fatalf("counter %d after %d commits", got, want)
	}
}
