package stm_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
)

// gatePipeline builds a pipeline whose commit frontier is parked on a
// gate: the first submission's body blocks until the gate closes, so
// later submissions pile up against Capacity deterministically.
func gatePipeline(t *testing.T, workers int) (p *stm.Pipeline, gate chan struct{}) {
	t.Helper()
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	gate = make(chan struct{})
	if _, err := p.Submit(func(stm.Tx, int) { <-gate }); err != nil {
		t.Fatal(err)
	}
	return p, gate
}

// TestSubmitCtxCancelDuringBackpressure: with the commit frontier
// parked, fill the pipeline to Capacity and cancel a SubmitCtx that
// is blocked in the backpressure wait. The submission must be
// withdrawn (ErrCanceled, no age consumed) and the stream must keep
// working after the gate opens.
func TestSubmitCtxCancelDuringBackpressure(t *testing.T) {
	p, gate := gatePipeline(t, 2)
	capacity := p.Config().Capacity
	var tks []*stm.Ticket
	for p.InFlight() < capacity {
		tk, err := p.Submit(func(stm.Tx, int) {})
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	submitted := p.Submitted()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.SubmitCtx(ctx, func(stm.Tx, int) {})
		done <- err
	}()
	// The submit must be parked (capacity full, frontier gated), not
	// completing; give it a moment to park, then cancel.
	select {
	case err := <-done:
		t.Fatalf("SubmitCtx returned %v while the pipeline was full", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, stm.ErrCanceled) {
			t.Fatalf("canceled SubmitCtx returned %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation error %v must also match context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled SubmitCtx did not return")
	}
	if got := p.Submitted(); got != submitted {
		t.Fatalf("withdrawn submission consumed an age: %d -> %d", submitted, got)
	}

	// The stream keeps running: open the gate, everything drains, and
	// new submissions (ctx already canceled ⇒ refused; fresh ctx ⇒
	// accepted) behave.
	close(gate)
	if _, err := p.SubmitCtx(ctx, func(stm.Tx, int) {}); !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("pre-canceled ctx must refuse submission, got %v", err)
	}
	tk, err := p.SubmitCtx(context.Background(), func(stm.Tx, int) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(tks, tk) {
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitCtxCancelAfterAgeAssignment: canceling a wait on an
// accepted submission abandons only the wait — the ticket still
// resolves with the real commit outcome and the latched typed value.
func TestWaitCtxCancelAfterAgeAssignment(t *testing.T) {
	p, gate := gatePipeline(t, 2)
	tk, err := stm.SubmitFunc(p, func(tx stm.Tx, age int) uint64 { return uint64(age) * 2 })
	if err != nil {
		t.Fatal(err)
	}
	age := tk.Age()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.WaitCtx(ctx); !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("WaitCtx on gated commit returned %v, want ErrCanceled", err)
	}
	if _, err := tk.ValueCtx(ctx); !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("ValueCtx must propagate the cancellation")
	}
	if _, resolved := tk.Err(); resolved {
		t.Fatal("cancellation must not resolve the ticket")
	}

	close(gate) // frontier advances; the age commits for real
	if err := tk.Wait(); err != nil {
		t.Fatalf("ticket lost its age after a canceled wait: %v", err)
	}
	if tk.Age() != age {
		t.Fatalf("age changed: %d -> %d", age, tk.Age())
	}
	v, err := tk.Value()
	if err != nil || v != uint64(age)*2 {
		t.Fatalf("Value() = %d, %v; want %d", v, err, age*2)
	}
	// A canceled-context wait on an already-resolved ticket returns the
	// outcome, not the cancellation.
	if err := tk.WaitCtx(ctx); err != nil {
		t.Fatalf("WaitCtx after resolution returned %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitCtxRace hammers SubmitCtx from many goroutines with
// randomly timed cancellations while the frontier stalls and resumes;
// run under -race this checks the cancellation paths are data-race
// free and every accepted ticket resolves exactly once. The final
// counter must equal the number of accepted submissions — a withdrawn
// submission must have no effect.
func TestSubmitCtxRace(t *testing.T) {
	counter := stm.NewTVar[uint64](0)
	p, gate := gatePipeline(t, 4)
	const producers = 8
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	var accepted sync.WaitGroup
	var acceptedN, canceledN int64
	var mu sync.Mutex
	for g := 0; g < producers; g++ {
		accepted.Add(1)
		go func(g int) {
			defer accepted.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*50*time.Microsecond)
				tk, err := stm.SubmitFuncCtx(ctx, p, func(tx stm.Tx, _ int) uint64 {
					nv := stm.ReadT(tx, counter) + 1
					stm.WriteT(tx, counter, nv)
					return nv
				})
				if err != nil {
					cancel()
					if !errors.Is(err, stm.ErrCanceled) {
						t.Errorf("producer %d: %v", g, err)
						return
					}
					mu.Lock()
					canceledN++
					mu.Unlock()
					continue
				}
				mu.Lock()
				acceptedN++
				mu.Unlock()
				// Wait with an already-expired context sometimes, then for
				// real: the ticket must survive abandoned waits.
				tk.WaitCtx(ctx)
				cancel()
				if err := tk.Wait(); err != nil {
					t.Errorf("producer %d: accepted ticket failed: %v", g, err)
					return
				}
			}
		}(g)
	}
	// Stall and release the frontier a few times while producers run.
	time.Sleep(2 * time.Millisecond)
	close(gate)
	accepted.Wait()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := counter.Load(); got != uint64(acceptedN) {
		t.Fatalf("counter %d, accepted %d (canceled %d must have no effect)", got, acceptedN, canceledN)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
