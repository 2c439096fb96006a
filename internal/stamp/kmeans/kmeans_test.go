package kmeans

import (
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{Points: 200, Dims: 4, K: 6, Iterations: 2, Chunk: 4, Seed: 3, Yield: yield}
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
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2, stm.OrderedNOrec, stm.STMLite} {
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

func TestHighContentionPreset(t *testing.T) {
	cfg := HighContention()
	cfg.Points, cfg.Iterations, cfg.Yield = 120, 2, true
	a := New(cfg)
	if _, err := a.Run(apps.Runner{Alg: stm.OUL, Workers: 6}); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	if LowContention().K <= HighContention().K {
		t.Fatal("low contention must use more clusters than high")
	}
}

func TestResetAllowsRerun(t *testing.T) {
	a := New(small(false))
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	f1 := a.Fingerprint()
	a.Reset()
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != f1 {
		t.Fatal("rerun after Reset diverged")
	}
}

func TestNumTxns(t *testing.T) {
	a := New(small(false))
	if a.NumTxns() != 2*((200+3)/4) {
		t.Fatalf("NumTxns = %d", a.NumTxns())
	}
}
