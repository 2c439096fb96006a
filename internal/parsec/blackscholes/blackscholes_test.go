package blackscholes

import (
	"math"
	"testing"

	"github.com/orderedstm/ostm/internal/apps"
	"github.com/orderedstm/ostm/stm"
)

func small(yield bool) Config {
	return Config{Options: 256, Block: 8, Seed: 2, Yield: yield}
}

func TestCNDFProperties(t *testing.T) {
	if got := cndf(0); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("cndf(0) = %v", got)
	}
	if cndf(5) < 0.999 || cndf(-5) > 0.001 {
		t.Fatal("cndf tails wrong")
	}
	for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
		if s := cndf(x) + cndf(-x); math.Abs(s-1) > 1e-9 {
			t.Fatalf("cndf symmetry broken at %v: %v", x, s)
		}
	}
}

func TestPutCallParity(t *testing.T) {
	o := option{spot: 100, strike: 95, rate: 0.05, vol: 0.25, time: 1}
	call := price(option{o.spot, o.strike, o.rate, o.vol, o.time, true})
	put := price(option{o.spot, o.strike, o.rate, o.vol, o.time, false})
	// C - P = S - K e^{-rT}
	want := o.spot - o.strike*math.Exp(-o.rate*o.time)
	if math.Abs((call-put)-want) > 1e-6 {
		t.Fatalf("put-call parity violated: C-P=%v want %v", call-put, want)
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
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL, stm.OrderedTL2, stm.STMLite} {
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
	if a.Fingerprint() == f {
		t.Fatal("reset did not clear results")
	}
	if _, err := a.Run(apps.Runner{Alg: stm.Sequential, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != f {
		t.Fatal("rerun diverged")
	}
}
