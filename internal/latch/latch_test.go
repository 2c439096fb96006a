package latch

import (
	"runtime"
	"sync"
	"testing"
)

// TestResolveRacesWaiters resolves a latch while goroutines enter it
// through every door — Wait, Done, polling Resolved — and checks that
// each of them, once through, sees what the resolver wrote before
// Resolve. Under -race this is also the proof that the state word
// carries the happens-before edge.
func TestResolveRacesWaiters(t *testing.T) {
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for round := 1; round <= rounds; round++ {
		var l Latch
		outcome := 0 // what a ticket's err / latched value is to the latch
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				switch w % 3 {
				case 0:
					l.Wait()
				case 1:
					<-l.Done()
				case 2:
					for !l.Resolved() {
						runtime.Gosched()
					}
				}
				if outcome != round {
					t.Errorf("round %d: waiter %d got through and read outcome %d", round, w, outcome)
				}
			}(w)
		}
		if round%2 == 0 {
			runtime.Gosched() // let some waiters park first
		}
		outcome = round
		l.Resolve()
		wg.Wait()
		select {
		case <-l.Done():
		default:
			t.Fatalf("round %d: Done after resolution is not closed", round)
		}
	}
}

// TestManyWaitersOneLatch parks a crowd on one latch before it
// resolves: every Done must hand out the one lazily made channel, and
// every waiter wake.
func TestManyWaitersOneLatch(t *testing.T) {
	var l Latch
	const crowd = 64
	chans := make([]<-chan struct{}, crowd)
	var ready, woke sync.WaitGroup
	for w := 0; w < crowd; w++ {
		ready.Add(1)
		woke.Add(1)
		go func(w int) {
			defer woke.Done()
			chans[w] = l.Done()
			ready.Done()
			l.Wait()
		}(w)
	}
	ready.Wait()
	for w := 1; w < crowd; w++ {
		if chans[w] != chans[0] {
			t.Fatalf("waiter %d got its own channel", w)
		}
	}
	if l.Resolved() {
		t.Fatal("resolved before Resolve")
	}
	l.Resolve()
	woke.Wait()
}

// TestDoneAfterResolve: a latch that resolved with nobody watching
// never makes a channel of its own, and still hands out a closed one.
func TestDoneAfterResolve(t *testing.T) {
	var l Latch
	l.Resolve()
	if !l.Resolved() {
		t.Fatal("not resolved after Resolve")
	}
	l.Wait() // must not block
	select {
	case <-l.Done():
	default:
		t.Fatal("Done after resolution is not closed")
	}
	if l.head != nil {
		t.Fatal("an unwatched latch registered a waiter")
	}
	if n := testing.AllocsPerRun(100, func() {
		var l Latch
		l.Resolve()
		l.Wait()
		<-l.Done()
	}); n != 0 {
		t.Fatalf("resolve-then-wait allocates %v times, want 0", n)
	}
}
