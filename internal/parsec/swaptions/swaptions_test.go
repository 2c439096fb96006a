package swaptions

import (
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{Swaptions: 24, Trials: 16, Steps: 8, Seed: 3, Yield: yield}
}

func TestSimulateDeterministic(t *testing.T) {
	a := New(small(false))
	p1, e1 := a.simulate(5)
	p2, e2 := a.simulate(5)
	if p1 != p2 || e1 != e2 {
		t.Fatal("simulation not deterministic for the same swaption")
	}
	if p1 < 0 || e1 < 0 {
		t.Fatalf("negative price/stderr: %v %v", p1, e1)
	}
	q, _ := a.simulate(6)
	if q == p1 {
		t.Fatal("distinct swaptions produced identical prices (suspicious)")
	}
}

func TestSequentialVerifies(t *testing.T) {
	a := New(small(false))
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedEnginesMatchSequential(t *testing.T) {
	ref := New(small(true))
	if _, err := ref.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedNOrec, stm.STMLite} {
		t.Run(alg.String(), func(t *testing.T) {
			a := New(small(true))
			if _, err := a.Run(apps.Runner{Alg: alg, Workers: 4}); err != nil {
				t.Fatal(err)
			}
			if err := a.Verify(); err != nil {
				t.Fatal(err)
			}
			if got := a.Fingerprint(); got != want {
				t.Fatalf("fingerprint %#x, want %#x", got, want)
			}
		})
	}
}

func TestResetAllowsRerun(t *testing.T) {
	a := New(small(false))
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	f := a.Fingerprint()
	a.Reset()
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != f {
		t.Fatal("rerun diverged")
	}
}
