package meta

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderWaitStress drives every wait of one Order at once: workers
// claim ages and wait for their turn (sometimes behind a run-ahead
// WaitReachable first), complete their age or, at the halt age, halt
// the order; aborters doom workers and Kick; observers wait on random
// targets near the frontier, with WaitReachable and with WaitTurn. The
// doom and cancel callbacks sometimes yield, so a completion can land
// between a sleeper's last check and its Wait — the window a lost
// wakeup needs — and some bodies outlast the spin, so waiters do sleep.
// Every waiter must return: a watchdog fails the test with a goroutine
// dump when no wait returns for 10 s.
func TestOrderWaitStress(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, observers := range []int{0, 4} {
			for _, halt := range []bool{false, true} {
				t.Run(fmt.Sprintf("procs%d/observers%d/halt=%v", procs, observers, halt), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					stressOrder(t, observers, halt)
				})
			}
		}
	}
}

func stressOrder(t *testing.T, observers int, halt bool) {
	const (
		ages     = 20000
		workers  = 3
		aborters = 2
		window   = 4
	)
	o := NewOrder()
	haltAt := uint64(ages)
	if halt {
		haltAt = ages / 2
	}
	var (
		next     atomic.Uint64 // next age to claim
		returns  atomic.Uint64 // waits that returned: the watchdog's progress
		stop     atomic.Bool   // the workers are done; observers cancel
		doomed   [workers]atomic.Bool
		turns    = make([]atomic.Int32, ages)
		errs     = make(chan error, workers+observers)
		wg, side sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			doomedf := func() bool {
				if rng.IntN(8) == 0 {
					runtime.Gosched()
				}
				return doomed[w].Load()
			}
			for {
				age := next.Add(1) - 1
				if age >= ages {
					return
				}
				if age >= window && rng.IntN(2) == 0 {
					o.WaitReachable(age-window, doomedf)
					returns.Add(1)
				}
				for !o.WaitTurn(age, doomedf) {
					returns.Add(1)
					if o.Halted() {
						return
					}
					doomed[w].Store(false) // the abort is handled: wait again
				}
				returns.Add(1)
				turns[age].Add(1)
				if rng.IntN(16) == 0 {
					time.Sleep(20 * time.Microsecond) // outlast the next turn's spin
				}
				if age == haltAt {
					o.Halt()
					return
				}
				o.Complete(age)
			}
		}()
	}
	// Aborters stop at a quarter of the run, so that their Kicks cannot
	// rescue a lost wakeup in the rest of it.
	for a := range aborters {
		side.Add(1)
		go func() {
			defer side.Done()
			rng := rand.New(rand.NewPCG(uint64(a), 2))
			for o.Committed() < ages/4 && !o.Halted() {
				doomed[rng.IntN(workers)].Store(true)
				o.Kick()
				time.Sleep(time.Duration(rng.IntN(50)) * time.Microsecond)
			}
		}()
	}
	for i := range observers {
		side.Add(1)
		go func() {
			defer side.Done()
			rng := rand.New(rand.NewPCG(uint64(i), 3))
			for !stop.Load() {
				target := o.Committed() + 1 + uint64(rng.IntN(8))
				if rng.IntN(2) == 0 {
					o.WaitReachable(target, func() bool {
						if rng.IntN(8) == 0 {
							runtime.Gosched()
						}
						return stop.Load()
					})
					if c := o.Committed(); c < target && !o.Halted() && !stop.Load() {
						errs <- fmt.Errorf("WaitReachable(%d) returned at frontier %d, neither halted nor cancelled", target, c)
						return
					}
				} else {
					// A turn the frontier passes counts as a doom.
					passed := func() bool { return o.Committed() > target || stop.Load() }
					if o.WaitTurn(target, passed) && o.Committed() < target {
						errs <- fmt.Errorf("WaitTurn(%d) reported the turn at frontier %d", target, o.Committed())
						return
					}
				}
				returns.Add(1)
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		stop.Store(true)
		o.Kick()
		side.Wait()
		close(done)
	}()
	watchdog := time.NewTicker(10 * time.Second)
	defer watchdog.Stop()
	for seen := uint64(0); ; {
		select {
		case <-done:
		case <-watchdog.C:
			if r := returns.Load(); r > seen {
				seen = r
				continue
			}
			buf := make([]byte, 1<<20)
			t.Fatalf("no wait returned for 10 s at frontier %d (halted %v): a wakeup was lost\n%s",
				o.Committed(), o.Halted(), buf[:runtime.Stack(buf, true)])
		}
		break
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := o.Committed(); got != haltAt {
		t.Fatalf("frontier %d at the end, want %d", got, haltAt)
	}
	for age := range turns {
		want := int32(0)
		if uint64(age) <= haltAt {
			want = 1
		}
		if got := turns[age].Load(); got != want {
			t.Fatalf("age %d got its turn %d times, want %d", age, got, want)
		}
	}
	if n := o.sleepers.Load(); n != 0 {
		t.Fatalf("%d sleepers still registered after every wait returned", n)
	}
}

// TestOrderWakesOnlySleepers pins the fast path of Complete and Kick:
// with no sleeper registered neither takes the mutex, so both return
// while the test holds it. With a sleeper registered, Complete must
// take it and wake the sleeper.
func TestOrderWakesOnlySleepers(t *testing.T) {
	o := NewOrder()
	o.mu.Lock()
	returned := make(chan struct{})
	go func() {
		o.Complete(0)
		o.Kick()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		o.mu.Unlock()
		<-returned
		t.Fatal("Complete or Kick took the mutex with no sleeper registered")
	}
	o.mu.Unlock()

	woke := make(chan struct{})
	go func() {
		o.WaitReachable(2, nil)
		close(woke)
	}()
	for o.sleepers.Load() == 0 {
		time.Sleep(time.Millisecond) // let the spin run out and the waiter park
	}
	o.Complete(1)
	select {
	case <-woke:
	case <-time.After(10 * time.Second):
		t.Fatal("a parked waiter was not woken by the Complete it waited for")
	}
}
