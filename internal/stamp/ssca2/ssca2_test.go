package ssca2

import (
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{Vertices: 128, Edges: 1024, MaxDegree: 64, Batch: 4, Seed: 5, Yield: yield}
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
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2, stm.OrderedUndoLogInvis, stm.STMLite} {
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

func TestDegreeOverflowCounted(t *testing.T) {
	a := New(Config{Vertices: 4, Edges: 512, MaxDegree: 8, Batch: 2, Seed: 7})
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if a.drops.Load() == 0 {
		t.Fatal("expected drops with tiny degree bound")
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
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
