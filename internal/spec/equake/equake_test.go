package equake

import (
	"math"
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{Nodes: 120, Regions: 8, Steps: 4, Seed: 5, Yield: yield}
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

func TestWavePropagates(t *testing.T) {
	a := New(small(false))
	edge0 := a.disp[2].Load()
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	center := a.disp[a.cfg.Nodes/2].Load()
	if center == 1.0 {
		t.Fatal("center displacement never evolved")
	}
	_ = edge0
	var moved bool
	for i := 0; i < a.cfg.Nodes; i++ {
		if math.Abs(a.vel[i].Load()) > 1e-12 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no node gained velocity; stencil inert")
	}
}

func TestOrderedEnginesMatchSequential(t *testing.T) {
	ref := New(small(true))
	if _, err := ref.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2, stm.OrderedUndoLogVis, stm.STMLite} {
		t.Run(alg.String(), func(t *testing.T) {
			a := New(small(true))
			res, err := a.Run(apps.Runner{Alg: alg, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Verify(); err != nil {
				t.Fatal(err)
			}
			if got := a.Fingerprint(); got != want {
				t.Fatalf("fingerprint %#x, want %#x (stats %v)", got, want, res.Stats)
			}
		})
	}
}

func TestWrap(t *testing.T) {
	if wrap(-1, 10) != 9 || wrap(10, 10) != 0 || wrap(5, 10) != 5 {
		t.Fatal("wrap arithmetic wrong")
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
