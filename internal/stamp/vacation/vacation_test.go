package vacation

import (
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{Resources: 32, Customers: 48, Sessions: 400, QuerySpan: 4, ReservePct: 75, Seed: 9, Yield: yield}
}

func TestPackingRoundTrip(t *testing.T) {
	total, used, price := uint64(12), uint64(5), uint64(399)
	gt, gu, gp := unpackRes(packRes(total, used, price))
	if gt != total || gu != used || gp != price {
		t.Fatalf("resource roundtrip: %d %d %d", gt, gu, gp)
	}
	h, k, r, b := unpackCust(packCust(1, 2, 31, 777))
	if h != 1 || k != 2 || r != 31 || b != 777 {
		t.Fatalf("customer roundtrip: %d %d %d %d", h, k, r, b)
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

func TestPresetsDiffer(t *testing.T) {
	lo, hi := LowContention(), HighContention()
	if lo.Resources <= hi.Resources {
		t.Fatal("low contention must spread over more resources")
	}
	if lo.QuerySpan >= hi.QuerySpan {
		t.Fatal("high contention must query wider spans")
	}
}

func TestResetRestoresDatabase(t *testing.T) {
	a := New(small(false))
	before := a.Fingerprint()
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if a.Fingerprint() != before {
		t.Fatal("reset did not restore the initial database")
	}
}
