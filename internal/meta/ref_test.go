package meta

import (
	"sync"
	"testing"
)

func TestStatusWordLifePacking(t *testing.T) {
	var w StatusWord
	if w.Load() != StatusActive || w.Gen() != 0 {
		t.Fatalf("zero value = (%v, gen %d), want (active, 0)", w.Load(), w.Gen())
	}
	if !w.CAS(StatusActive, StatusPending) {
		t.Fatal("CAS within life failed")
	}
	w.Store(StatusCommitted)
	if w.Load() != StatusCommitted || w.Gen() != 0 {
		t.Fatal("Store must preserve the generation")
	}
	if gen := w.Renew(); gen != 1 {
		t.Fatalf("Renew -> gen %d, want 1", gen)
	}
	if w.Load() != StatusActive || w.Gen() != 1 {
		t.Fatal("Renew must start the next life Active")
	}
	// A CASLife from the previous life's snapshot must fail.
	old := Life(packLife(0, StatusActive))
	if w.CASLife(old, StatusTransient) {
		t.Fatal("CASLife crossed a life boundary")
	}
	cur := w.LoadLife()
	if !w.CASLife(cur, StatusTransient) {
		t.Fatal("CASLife within the current life failed")
	}
	if w.Load() != StatusTransient || w.Gen() != 1 {
		t.Fatal("CASLife must preserve the generation")
	}
}

func TestRefPacking(t *testing.T) {
	if RefNil.IsTxn() || RefBusy.IsTxn() {
		t.Fatal("sentinels must not resolve as descriptors")
	}
	r := MakeRef(0, 0)
	if !r.IsTxn() || r.Idx() != 0 || r.Gen() != 0 {
		t.Fatalf("MakeRef(0,0) roundtrip broken: %v %d %d", r.IsTxn(), r.Idx(), r.Gen())
	}
	r = MakeRef(123456, 987654321)
	if r.Idx() != 123456 || r.Gen() != 987654321 {
		t.Fatalf("roundtrip: idx %d gen %d", r.Idx(), r.Gen())
	}
	if !r.SameLife(Life(packLife(987654321, StatusPending))) {
		t.Fatal("SameLife must match the publishing generation")
	}
	if r.SameLife(Life(packLife(987654322, StatusPending))) {
		t.Fatal("SameLife must reject a later life")
	}
	if MakeRef(1, 5) == MakeRef(1, 6) || MakeRef(1, 5) == MakeRef(2, 5) {
		t.Fatal("distinct (idx, gen) pairs must produce distinct refs")
	}
}

func TestRefWordCASIsGenerationExact(t *testing.T) {
	var w RefWord
	a := MakeRef(7, 1)
	b := MakeRef(7, 2) // same descriptor, next life
	w.Store(a)
	if w.CAS(b, RefNil) {
		t.Fatal("CAS matched across generations")
	}
	if !w.CAS(a, b) || w.Load() != b {
		t.Fatal("value CAS failed")
	}
}

func TestRegistryChunkedGrowth(t *testing.T) {
	var r Registry[int]
	const n = regBlockSize*2 + 17 // force multiple blocks
	vals := make([]*int, n)
	for i := 0; i < n; i++ {
		v := new(int)
		*v = i
		vals[i] = v
		if idx := r.Add(v); idx != uint32(i) {
			t.Fatalf("Add returned %d, want %d", idx, i)
		}
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		if r.At(uint32(i)) != vals[i] {
			t.Fatalf("At(%d) resolved the wrong descriptor", i)
		}
	}
}

func TestCacheDepotRebalance(t *testing.T) {
	var d Depot[int]
	producer := NewCache(&d)
	consumer := NewCache(&d)
	// A producer-only goroutine must spill to the depot once its local
	// stack fills, and a consumer-only one must refill from there — the
	// validator-retires-what-workers-allocate flow.
	seen := map[*int]bool{}
	for i := 0; i < 10*cacheCap; i++ {
		v := new(int)
		seen[v] = true
		producer.Put(v)
	}
	if d.Len() == 0 {
		t.Fatal("full cache never spilled to the depot")
	}
	got := 0
	for {
		v := consumer.Get()
		if v == nil {
			break
		}
		if !seen[v] {
			t.Fatal("consumer got an item the producer never put")
		}
		got++
	}
	if got == 0 {
		t.Fatal("consumer refilled nothing from the depot")
	}
	if got > 10*cacheCap {
		t.Fatalf("duplicated items: got %d of %d", got, 10*cacheCap)
	}
}

func TestStatsCellsFold(t *testing.T) {
	var s Stats
	s.Commit() // default cell
	c1, c2 := s.NewCell(), s.NewCell()
	var wg sync.WaitGroup
	for _, c := range []*StatsCell{c1, c2} {
		wg.Add(1)
		go func(c *StatsCell) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Start()
				c.Commit()
				c.Abort(CauseRAW)
			}
		}(c)
	}
	wg.Wait()
	v := s.View()
	if v.Commits != 2001 || v.Starts != 2000 || v.Aborts[CauseRAW] != 2000 {
		t.Fatalf("folded view wrong: %+v", v)
	}
}
