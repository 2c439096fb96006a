package stm_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/orderedstm/ostm/stm"
)

func TestAlgorithmStringsRoundTrip(t *testing.T) {
	for _, a := range stm.Algorithms() {
		s := a.String()
		if s == "" || strings.HasPrefix(s, "Algorithm(") {
			t.Fatalf("algorithm %d lacks a name", int(a))
		}
		got, err := stm.ParseAlgorithm(s)
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := stm.ParseAlgorithm("NotAnAlgorithm"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := stm.ParseAlgorithm("OUL-Steal"); err == nil {
		t.Fatal("OUL-Steal was removed; ParseAlgorithm must refuse it")
	}
	if !strings.HasPrefix(stm.Algorithm(97).String(), "Algorithm(") {
		t.Fatal("out-of-range algorithm must stringify defensively")
	}
}

func TestOrderedPredicate(t *testing.T) {
	ordered := map[stm.Algorithm]bool{
		stm.Sequential: true, stm.OWB: true, stm.OUL: true,
		stm.TL2: false, stm.OrderedTL2: true, stm.NOrec: false, stm.OrderedNOrec: true,
		stm.UndoLogVis: false, stm.OrderedUndoLogVis: true,
		stm.UndoLogInvis: false, stm.OrderedUndoLogInvis: true, stm.STMLite: true,
	}
	for a, want := range ordered {
		if a.Ordered() != want {
			t.Fatalf("%v.Ordered() = %v, want %v", a, a.Ordered(), want)
		}
	}
	for _, a := range stm.OrderedAlgorithms() {
		if !a.Ordered() {
			t.Fatalf("OrderedAlgorithms contains unordered %v", a)
		}
	}
}

func TestFloatTVar(t *testing.T) {
	v := stm.NewTVar[float64](0)
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	var roundTrip float64
	if _, err := ex.Run(1, func(tx stm.Tx, age int) {
		stm.WriteT(tx, v, 3.5)
		stm.WriteT(tx, v, stm.ReadT(tx, v)+1.25)
		roundTrip = stm.ReadT(tx, v)
	}); err != nil {
		t.Fatal(err)
	}
	if roundTrip != 4.75 || v.Load() != 4.75 {
		t.Fatalf("float plumbing: %v / %v", roundTrip, v.Load())
	}
	v.Store(math.Copysign(0, -1))
	if !math.Signbit(v.Load()) {
		t.Fatal("negative zero lost in bit conversion")
	}
	f := func(x float64) bool {
		v.Store(x)
		got := v.Load()
		return got == x || (math.IsNaN(x) && math.IsNaN(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmTextMarshaling(t *testing.T) {
	for _, a := range stm.Algorithms() {
		text, err := a.MarshalText()
		if err != nil {
			t.Fatalf("%v.MarshalText: %v", a, err)
		}
		if string(text) != a.String() {
			t.Fatalf("MarshalText(%v) = %q, want %q", a, text, a.String())
		}
		var got stm.Algorithm
		if err := got.UnmarshalText(text); err != nil || got != a {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, got, err)
		}
		// Config files should not be case brittle.
		if err := got.UnmarshalText([]byte(strings.ToLower(a.String()))); err != nil || got != a {
			t.Fatalf("case-insensitive UnmarshalText(%q) = %v, %v", strings.ToLower(a.String()), got, err)
		}
	}
	if _, err := stm.Algorithm(97).MarshalText(); err == nil {
		t.Fatal("out-of-range MarshalText must error")
	}
	var a stm.Algorithm
	if err := a.UnmarshalText([]byte("NotAnAlgorithm")); err == nil {
		t.Fatal("UnmarshalText of an unknown name must error")
	}
}

func TestResultHelpers(t *testing.T) {
	var r stm.Result
	if r.Throughput() != 0 {
		t.Fatal("zero result throughput must be 0")
	}
	f := &stm.Fault{Age: 12, Value: "x"}
	if !strings.Contains(f.Error(), "12") {
		t.Fatalf("fault error lacks age: %q", f.Error())
	}
}

func TestExecutorConfigDefaults(t *testing.T) {
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.OUL})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ex.Config()
	if cfg.Workers != 1 || cfg.MaxReaders != 40 || cfg.TableBits == 0 || cfg.Window < 2 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestSTMLiteThreadAccounting: the paper counts the commit manager as
// one of STMLite's threads, so a 1-worker STMLite run must still
// complete (the executor keeps at least one transaction worker).
func TestSTMLiteThreadAccounting(t *testing.T) {
	v := stm.NewVar(0)
	ex, err := stm.NewExecutor(stm.Config{Algorithm: stm.STMLite, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(50, func(tx stm.Tx, age int) {
		tx.Write(v, tx.Read(v)+1)
	})
	if err != nil || res.N != 50 || v.Load() != 50 {
		t.Fatalf("res=%+v err=%v v=%d", res, err, v.Load())
	}
}

// TestVarQuiescentAccess covers the non-transactional accessors.
func TestVarQuiescentAccess(t *testing.T) {
	v := stm.NewVar(7)
	if v.Load() != 7 {
		t.Fatal("initial load")
	}
	v.Store(9)
	if !v.CAS(9, 10) || v.CAS(9, 11) {
		t.Fatal("CAS semantics")
	}
	vs := stm.NewVars(3)
	for i := range vs {
		if vs[i].Load() != 0 {
			t.Fatal("NewVars must zero")
		}
	}
}
