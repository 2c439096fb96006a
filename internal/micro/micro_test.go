package micro

import (
	"sync"
	"testing"

	"github.com/orderedstm/ostm/stm"
)

func run(t *testing.T, w *Workload, alg stm.Algorithm, workers int) stm.Result {
	t.Helper()
	ex, err := stm.NewExecutor(stm.Config{Algorithm: alg, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(w.Txns(), w.Body())
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	return res
}

// TestDeterminismAcrossOrderedEngines: every ordered engine must leave
// the pool with the same checksum as the sequential run, for every
// bench × length combination.
func TestDeterminismAcrossOrderedEngines(t *testing.T) {
	for _, b := range Benches() {
		for _, l := range []Length{Short, Long} {
			w := New(Config{Bench: b, Length: l, Txns: 200, PoolSize: 1 << 10, Seed: 3})
			w.Reset()
			run(t, w, stm.Sequential, 1)
			want := w.Checksum()
			for _, alg := range stm.OrderedAlgorithms() {
				w.Reset()
				run(t, w, alg, 4)
				if got := w.Checksum(); got != want {
					t.Errorf("%v/%v under %v: checksum %#x, want %#x", b, l, alg, got, want)
				}
			}
		}
	}
}

// TestHeavyClassDoesMoreWork sanity-checks the heavy class plumbs the
// ALU budget through (same accesses as short, deterministic).
func TestHeavyClassDoesMoreWork(t *testing.T) {
	w := New(Config{Bench: RNW1, Length: Heavy, Txns: 50, PoolSize: 256, Seed: 5})
	w.Reset()
	run(t, w, stm.Sequential, 1)
	first := w.Checksum()
	w.Reset()
	run(t, w, stm.OUL, 4)
	if w.Checksum() != first {
		t.Fatal("heavy class not deterministic across engines")
	}
}

// TestDisjointHasNoTrueConflicts: under OUL, the disjoint bench must
// produce (nearly) zero aborts — only lock-table aliasing may cause a
// handful.
func TestDisjointHasNoTrueConflicts(t *testing.T) {
	w := New(Config{Bench: Disjoint, Length: Short, Txns: 500, PoolSize: 1 << 16, Seed: 9})
	w.Reset()
	res := run(t, w, stm.OUL, 8)
	if ratio := res.Stats.AbortRatio(); ratio > 0.05 {
		t.Fatalf("disjoint abort ratio %.3f too high (stats %v)", ratio, res.Stats)
	}
}

// TestContendedBenchAborts: RWN over a tiny pool must produce aborts
// under optimistic engines (sanity for the abort-measurement plumbing).
// Whether two conflicting ages overlap is left to the scheduler, so
// ages 0 and 1 are made to overlap by construction: both also
// increment one shared word, and age 0's first attempt starts only once
// age 1's first attempt has run its body. Age 1 cannot commit before
// age 0, so age 0's read of that word finds it live and aborts it.
func TestContendedBenchAborts(t *testing.T) {
	w := New(Config{Bench: RWN, Length: Short, Txns: 400, PoolSize: 64, Seed: 11, YieldEvery: 2})
	w.Reset()
	body := w.Body()
	shared := stm.NewVar(0)
	ran := make(chan struct{})
	var first sync.Once
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.OUL, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(w.Txns(), func(tx stm.Tx, age int) {
		switch age {
		case 0:
			<-ran
		case 1:
			defer first.Do(func() { close(ran) })
		}
		if age < 2 {
			tx.Write(shared, tx.Read(shared)+1)
		}
		body(tx, age)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalAborts() == 0 {
		t.Fatal("expected aborts on a 64-word pool with write-heavy transactions")
	}
	if shared.Load() != 2 {
		t.Fatalf("shared word = %d, want 2", shared.Load())
	}
}

func TestParseHelpers(t *testing.T) {
	for _, b := range Benches() {
		got, err := ParseBench(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBench(%v) = %v, %v", b, got, err)
		}
	}
	for _, l := range Lengths() {
		got, err := ParseLength(l.String())
		if err != nil || got != l {
			t.Fatalf("ParseLength(%v) = %v, %v", l, got, err)
		}
	}
	if _, err := ParseBench("nope"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ParseLength("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestConfigDefaults(t *testing.T) {
	w := New(Config{})
	cfg := w.Config()
	if cfg.Txns != 500000 || cfg.PoolSize != 1<<20 || cfg.Seed != 1 || cfg.HeavyOps != 100 {
		t.Fatalf("defaults = %+v", cfg)
	}
}
