package simcpu

import (
	"testing"

	"github.com/orderedstm/ostm/internal/micro"
)

func traces(b micro.Bench, l micro.Length, n int) []Trace {
	return GenTraces(b, l, n, 1<<14, 7)
}

// TestAllAlgosComplete: every algorithm commits every transaction on
// every core count (no lost work, no simulator deadlock).
func TestAllAlgosComplete(t *testing.T) {
	const n = 300
	for _, b := range micro.Benches() {
		tr := traces(b, micro.Short, n)
		for _, a := range Algos() {
			for _, cores := range []int{1, 2, 8} {
				res := Simulate(a, tr, cores, DefaultParams())
				if res.Commits != n {
					t.Fatalf("%v/%v cores=%d: commits=%d want %d (aborts=%d)",
						a, b, cores, res.Commits, n, res.Aborts)
				}
				if res.VirtualTime <= 0 {
					t.Fatalf("%v/%v: zero virtual time", a, b)
				}
			}
		}
	}
}

// TestDeterminism: identical inputs give identical results.
func TestDeterminism(t *testing.T) {
	tr := traces(micro.RWN, micro.Long, 400)
	for _, a := range []Algo{OWB, OUL, OrderedTL2, STMLite} {
		r1 := Simulate(a, tr, 6, DefaultParams())
		r2 := Simulate(a, tr, 6, DefaultParams())
		if r1 != r2 {
			t.Fatalf("%v: nondeterministic results %+v vs %+v", a, r1, r2)
		}
	}
}

// TestDisjointScales: with no conflicts, cooperative engines must
// scale nearly linearly in virtual time.
func TestDisjointScales(t *testing.T) {
	tr := traces(micro.Disjoint, micro.Long, 2000)
	for _, a := range []Algo{OWB, OUL} {
		one := Simulate(a, tr, 1, DefaultParams())
		eight := Simulate(a, tr, 8, DefaultParams())
		speedup := float64(one.VirtualTime) / float64(eight.VirtualTime)
		if speedup < 3 {
			t.Fatalf("%v: disjoint speedup at 8 cores only %.2fx", a, speedup)
		}
	}
}

// TestCooperativeBeatsBlockedUnderContention: the paper's core claim —
// OUL outperforms the ordered blocked baselines on contended
// write-heavy workloads at high core counts.
func TestCooperativeBeatsBlockedUnderContention(t *testing.T) {
	tr := GenTraces(micro.RWN, micro.Short, 1500, 1<<12, 3)
	p := DefaultParams()
	oul := Simulate(OUL, tr, 8, p)
	for _, blocked := range []Algo{OrderedTL2, OrderedNOrec, OrderedUndoLogVis, OrderedUndoLogInvis} {
		b := Simulate(blocked, tr, 8, p)
		if oul.VirtualTime >= b.VirtualTime {
			t.Fatalf("OUL (%d) not faster than %v (%d) on contended RWN",
				oul.VirtualTime, blocked, b.VirtualTime)
		}
	}
}

// TestOrderedGap: enforcing the order must cost throughput relative
// to the unordered variant of the same algorithm (the paper's
// ordered-vs-unordered gap, Figure 2).
func TestOrderedGap(t *testing.T) {
	tr := GenTraces(micro.RWN, micro.Short, 1500, 1<<12, 5)
	p := DefaultParams()
	pairs := [][2]Algo{{TL2, OrderedTL2}, {NOrec, OrderedNOrec}, {UndoLogVis, OrderedUndoLogVis}}
	for _, pair := range pairs {
		un := Simulate(pair[0], tr, 8, p)
		or := Simulate(pair[1], tr, 8, p)
		if un.VirtualTime > or.VirtualTime {
			t.Fatalf("%v (%d) slower than its ordered variant %v (%d)",
				pair[0], un.VirtualTime, pair[1], or.VirtualTime)
		}
	}
}

// TestSequentialBaseline: virtual time is the plain sum of costs.
func TestSequentialBaseline(t *testing.T) {
	tr := []Trace{{Ops: []Op{{Kind: OpRead, Addr: 1, Local: 10}, {Kind: OpWrite, Addr: 2, Local: 5}}}}
	res := Simulate(Sequential, tr, 4, DefaultParams())
	if res.VirtualTime != 17 { // 10+1 + 5+1
		t.Fatalf("sequential virtual time = %d, want 17", res.VirtualTime)
	}
	if res.Commits != 1 || res.Aborts != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

// TestNamesAndPredicates sanity-checks the enum helpers.
func TestNamesAndPredicates(t *testing.T) {
	for _, a := range Algos() {
		if a.String() == "" {
			t.Fatalf("algo %d unnamed", a)
		}
	}
	if !OUL.cooperative() || OrderedTL2.cooperative() {
		t.Fatal("cooperative predicate wrong")
	}
	if !OrderedTL2.blocked() || OUL.blocked() {
		t.Fatal("blocked predicate wrong")
	}
	if !OUL.writeThrough() || OWB.writeThrough() {
		t.Fatal("write-through predicate wrong")
	}
	if TL2.Ordered() || !OrderedTL2.Ordered() {
		t.Fatal("ordered predicate wrong")
	}
}

// TestThroughputHelpers covers the Result helpers.
func TestThroughputHelpers(t *testing.T) {
	r := Result{Commits: 500, Aborts: 100, VirtualTime: 1000}
	if r.ThroughputPerKCycle() != 500 {
		t.Fatalf("throughput = %v", r.ThroughputPerKCycle())
	}
	if r.AbortRatio() != 0.2 {
		t.Fatalf("abort ratio = %v", r.AbortRatio())
	}
	var zero Result
	if zero.ThroughputPerKCycle() != 0 || zero.AbortRatio() != 0 {
		t.Fatal("zero-value helpers wrong")
	}
}
