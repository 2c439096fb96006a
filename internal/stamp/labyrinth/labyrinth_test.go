package labyrinth

import (
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{X: 12, Y: 12, Z: 2, Pairs: 16, Seed: 4, Yield: yield}
}

func TestSequentialRoutes(t *testing.T) {
	a := New(small(false))
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	if a.Routed() == 0 {
		t.Fatal("no pair routed on an empty maze")
	}
}

func TestOrderedEnginesSatisfyInvariants(t *testing.T) {
	// Path planning is snapshot-dependent (as in STAMP), so engines
	// are checked against the structural invariants, not for equality.
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
			if a.Routed() == 0 {
				t.Fatal("no pair routed")
			}
		})
	}
}

func TestUnroutablePairResolves(t *testing.T) {
	// A 1x1xZ corridor fully claimed by the first path leaves nothing
	// for the second pair; it must resolve as unrouted, not hang.
	a := New(Config{X: 1, Y: 4, Z: 1, Pairs: 2, Seed: 8})
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsGrid(t *testing.T) {
	a := New(small(false))
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	for i := range a.grid {
		if a.grid[i].Load() != 0 {
			t.Fatal("grid not cleared")
		}
	}
}
