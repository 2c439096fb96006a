package genome

import (
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{GeneLength: 512, SegmentLength: 12, Duplicates: 128, Seed: 2, Yield: yield}
}

func TestSequentialReconstructs(t *testing.T) {
	a := New(small(false))
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedEnginesReconstruct(t *testing.T) {
	ref := New(small(true))
	if _, err := ref.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedUndoLogVis, stm.STMLite} {
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
	for round := 0; round < 2; round++ {
		if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		a.Reset()
	}
}

func TestSegmentStreamCoversGene(t *testing.T) {
	a := New(small(false))
	if len(a.segments) != a.cfg.GeneLength-a.cfg.SegmentLength+1+a.cfg.Duplicates {
		t.Fatalf("segment count = %d", len(a.segments))
	}
	if a.NumTxns() != 2*len(a.segments) {
		t.Fatalf("NumTxns = %d", a.NumTxns())
	}
}
