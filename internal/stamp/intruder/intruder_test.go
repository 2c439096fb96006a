package intruder

import (
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{Flows: 48, FragmentsPerFlow: 4, FragmentBytes: 12, Signatures: 8, AttackPct: 25, Seed: 6, Yield: yield}
}

func TestSequentialDetects(t *testing.T) {
	a := New(small(false))
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	attacks := 0
	for f := range a.attacked {
		if a.attacked[f] {
			attacks++
		}
	}
	if attacks == 0 {
		t.Fatal("traffic generator produced no attacks")
	}
}

func TestOrderedEnginesMatchSequential(t *testing.T) {
	ref := New(small(true))
	if _, err := ref.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedUndoLogVis, stm.STMLite} {
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
				t.Fatalf("fingerprint %#x, want %#x", got, want)
			}
		})
	}
}

func TestScanFindsPlantedSignature(t *testing.T) {
	a := New(small(false))
	payload := append([]byte("xxxxxxxx"), a.signatures[0]...)
	if !a.scan(payload) {
		t.Fatal("scan missed a planted signature")
	}
	if a.scan([]byte("ABCDEFGH")) {
		t.Fatal("scan matched uppercase noise that cannot contain signatures")
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
