package fluidanimate

import (
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{CellsX: 4, CellsY: 4, ParticlesPerCell: 3, Steps: 2, Seed: 4, Yield: yield}
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
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2, stm.STMLite} {
		t.Run(alg.String(), func(t *testing.T) {
			a := New(small(true))
			res, err := a.Run(apps.Runner{Alg: alg, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Verify(); err != nil {
				t.Fatalf("%v (stats %v)", err, res.Stats)
			}
			if got := a.Fingerprint(); got != want {
				t.Fatalf("fingerprint %#x, want %#x (stats %v)", got, want, res.Stats)
			}
		})
	}
}

func TestParticlesStayInDomain(t *testing.T) {
	a := New(Config{CellsX: 3, CellsY: 3, ParticlesPerCell: 4, Steps: 5, Seed: 8})
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
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
