//go:build !race

package stm_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
)

// TestLongBodiesStaySpeculative: bodies that each spin 20 µs on their
// own Var give two workers twice the throughput of one, so the mode
// policy must find speculation within its first probe and keep most
// commits there, probing direct execution only now and then. It needs
// two processors to run on (GOMAXPROCS as well as the host: at one P
// speculation cannot win); the race detector's slowdown swamps the
// bodies, so the file is !race.
func TestLongBodiesStaySpeculative(t *testing.T) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two processors")
	}
	// Other packages' tests may share the processors (go test ./...
	// runs packages in parallel), and then speculation has no second
	// core to win with: the run is repeated before the test fails.
	const n, tries = 30000, 3
	for try := 1; ; try++ {
		direct := runLongBodies(t, n)
		if direct <= n/2 {
			return
		}
		if try == tries {
			t.Fatalf("%d of %d commits ran directly in each of %d runs; bodies of 20 µs on disjoint Vars should stay speculative", direct, n, tries)
		}
	}
}

// runLongBodies streams n long bodies through a 2-worker OWB pipeline
// and returns how many of them ran directly. Capacity holds every
// submission, so the producer never waits for a commit: it posts all n
// in a few milliseconds and leaves both processors to the workers.
// With a smaller Capacity, the producer and two spinning workers share
// two processors, and in some runs speculation was slower than direct
// execution (a 1024-commit epoch took 27 ms against 22 ms), so the
// policy rightly stayed direct.
func runLongBodies(t *testing.T, n int) uint64 {
	vars := stm.NewVars(n)
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 2, Capacity: n})
	if err != nil {
		t.Fatal(err)
	}
	withWatchdog(t, p.Committed, func() {
		for i := 0; i < n; i++ {
			v := &vars[i]
			if _, err := p.Submit(func(tx stm.Tx, age int) {
				for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
				}
				tx.Write(v, tx.Read(v)+1)
			}); err != nil {
				t.Error(err)
				return
			}
		}
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	direct, switches := stm.ModeCounts(p)
	t.Logf("%d of %d commits direct, %d switches", direct, n, switches)
	return direct
}
