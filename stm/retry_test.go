package stm_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
)

// TestRetryGateLiveness drives every age through one hot Var, so nearly
// every attempt that does not run at the commit frontier conflicts with
// a lower age; every other body yields between its read and its write,
// so higher ages get in the way of reachable ones at any GOMAXPROCS.
// Each retry waits for one commit past the frontier its last attempt
// saw, capped at its own age: an age that was already reachable must
// retry at once, because the commit it would otherwise wait for is its
// own. Losing the cap hangs the stream; the watchdog turns that into a
// failure carrying every goroutine's stack. Each age's read must match
// the sequential fold.
func TestRetryGateLiveness(t *testing.T) {
	const workers = 4
	algs := []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2, stm.OrderedNOrec,
		stm.OrderedUndoLogVis, stm.OrderedUndoLogInvis}
	for _, alg := range algs {
		for _, window := range []int{2 * workers, 0} { // the floor, the default (8*Workers)
			t.Run(fmt.Sprintf("%v/window%d", alg, window), func(t *testing.T) {
				runRetryGate(t, alg, workers, window)
			})
		}
	}
}

func runRetryGate(t *testing.T, alg stm.Algorithm, workers, window int) {
	const n = 20000
	hot := &stm.NewVars(1)[0]
	got := make([]atomic.Uint64, n)
	p, err := stm.NewPipeline(stm.Config{Algorithm: alg, Workers: workers, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	stm.PinSpeculative(p) // retries happen only under speculation
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := p.Submit(func(tx stm.Tx, age int) {
				x := tx.Read(hot)
				got[age].Store(x) // the committed attempt runs last
				if age%2 == 0 {
					runtime.Gosched() // let higher ages in between the read and the write
				}
				tx.Write(hot, x*3+uint64(age)+1)
			}); err != nil {
				done <- err
				return
			}
		}
		done <- p.Close()
	}()
	// The watchdog fails a stream that commits nothing for 10 s (a slow
	// one, say under the race detector on a busy host, is not a hang).
	watchdog := time.NewTicker(10 * time.Second)
	defer watchdog.Stop()
	for seen := uint64(0); ; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog.C:
			if c := p.Committed(); c > seen {
				seen = c
				continue
			}
			buf := make([]byte, 1<<20)
			t.Fatalf("stuck at %d of %d ages for 10 s: a retry waits on a commit that never comes\n%s",
				seen, n, buf[:runtime.Stack(buf, true)])
		}
		break
	}
	var x uint64
	for age := range got {
		if v := got[age].Load(); v != x {
			t.Fatalf("age %d read %d, the sequential fold %d", age, v, x)
		}
		x = x*3 + uint64(age) + 1
	}
	if v := hot.Load(); v != x {
		t.Fatalf("the hot Var holds %d, the sequential fold %d", v, x)
	}
}
