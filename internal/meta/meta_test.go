package meta

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusActive:    "active",
		StatusPending:   "pending",
		StatusTransient: "transient",
		StatusCommitted: "committed",
		StatusAborted:   "aborted",
		Status(99):      "invalid",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if !StatusCommitted.Final() || !StatusAborted.Final() {
		t.Error("committed/aborted must be final")
	}
	if StatusActive.Final() || StatusPending.Final() || StatusTransient.Final() {
		t.Error("active/pending/transient must not be final")
	}
}

func TestStatusWordCAS(t *testing.T) {
	var w StatusWord
	if w.Load() != StatusActive {
		t.Fatalf("zero value = %v, want active", w.Load())
	}
	if !w.CAS(StatusActive, StatusTransient) {
		t.Fatal("CAS active->transient failed")
	}
	if w.CAS(StatusActive, StatusCommitted) {
		t.Fatal("CAS from wrong state succeeded")
	}
	w.Store(StatusCommitted)
	if w.Load() != StatusCommitted {
		t.Fatalf("Load = %v", w.Load())
	}
}

func TestCauseString(t *testing.T) {
	for c := CauseNone; c < NumCauses; c++ {
		if c.String() == "invalid" {
			t.Errorf("cause %d has no name", c)
		}
	}
	if Cause(200).String() != "invalid" {
		t.Error("out-of-range cause should be invalid")
	}
}

func TestVarIdentityAndValues(t *testing.T) {
	a := NewVar(7)
	b := NewVar(9)
	if a.ID() == b.ID() {
		t.Fatal("ids must be unique")
	}
	if a.Load() != 7 || b.Load() != 9 {
		t.Fatal("initial values wrong")
	}
	a.Store(11)
	if a.Load() != 11 {
		t.Fatal("store lost")
	}
	if !a.CAS(11, 12) || a.Load() != 12 {
		t.Fatal("CAS failed")
	}
	if a.CAS(11, 13) {
		t.Fatal("CAS from stale value succeeded")
	}
}

func TestNewVarsUniqueIDs(t *testing.T) {
	vs := NewVars(100)
	seen := make(map[uint64]bool)
	for i := range vs {
		if seen[vs[i].ID()] {
			t.Fatalf("duplicate id %d", vs[i].ID())
		}
		seen[vs[i].ID()] = true
		if vs[i].Load() != 0 {
			t.Fatal("NewVars must zero-init")
		}
	}
}

func TestTableClampAndDeterminism(t *testing.T) {
	small := NewTable[int](1)
	if small.Len() != 1<<MinTableBits {
		t.Fatalf("clamp low: len=%d", small.Len())
	}
	tab := NewTable[int](8)
	if tab.Len() != 256 {
		t.Fatalf("len=%d, want 256", tab.Len())
	}
	v := NewVar(0)
	if tab.Of(v) != tab.Of(v) {
		t.Fatal("mapping must be deterministic")
	}
	// property: index always in range
	f := func(id uint64) bool { return tab.Index(id) < uint64(tab.Len()) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableSpreads(t *testing.T) {
	// Contiguous ids should spread across a table reasonably: with
	// 1024 ids on 256 entries no entry should see > 32 ids under
	// Fibonacci hashing.
	tab := NewTable[int](8)
	counts := make(map[uint64]int)
	for id := uint64(1); id <= 1024; id++ {
		counts[tab.Index(id)]++
	}
	for idx, c := range counts {
		if c > 32 {
			t.Fatalf("entry %d covers %d contiguous ids", idx, c)
		}
	}
}

func TestOrderTurns(t *testing.T) {
	o := NewOrder()
	if o.Committed() != 0 || !o.Reachable(0) || o.Reachable(1) {
		t.Fatal("initial order state wrong")
	}
	const n = 50
	var wg sync.WaitGroup
	out := make([]uint64, 0, n)
	var mu sync.Mutex
	for age := uint64(0); age < n; age++ {
		wg.Add(1)
		go func(a uint64) {
			defer wg.Done()
			o.WaitTurn(a, nil)
			mu.Lock()
			out = append(out, a)
			mu.Unlock()
			o.Complete(a)
		}(age)
	}
	wg.Wait()
	for i := range out {
		if out[i] != uint64(i) {
			t.Fatalf("turns out of order: %v", out)
		}
	}
}

func TestOrderWaitTurnDoomed(t *testing.T) {
	o := NewOrder()
	var doomed bool
	var mu sync.Mutex
	done := make(chan bool)
	go func() {
		done <- o.WaitTurn(5, func() bool { mu.Lock(); defer mu.Unlock(); return doomed })
	}()
	mu.Lock()
	doomed = true
	mu.Unlock()
	o.Kick()
	if got := <-done; got {
		t.Fatal("doomed waiter reported turn acquired")
	}
}

func TestOrderWaitReachableCancel(t *testing.T) {
	o := NewOrder()
	var stop bool
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		o.WaitReachable(10, func() bool { mu.Lock(); defer mu.Unlock(); return stop })
		close(done)
	}()
	mu.Lock()
	stop = true
	mu.Unlock()
	o.Kick()
	<-done // must return
}

func TestOrderCompleteOutOfOrderPanics(t *testing.T) {
	o := NewOrder()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.Complete(3)
}

func TestDepListConcurrentPush(t *testing.T) {
	var l DepList[int]
	var wg sync.WaitGroup
	const per, workers = 100, 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Push(base*per + i)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != per*workers {
		t.Fatalf("len=%d, want %d", l.Len(), per*workers)
	}
	seen := make(map[int]bool)
	l.ForEach(func(x int) { seen[x] = true })
	if len(seen) != per*workers {
		t.Fatalf("distinct=%d, want %d", len(seen), per*workers)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("reset did not empty the list")
	}
}

func TestLazySlots(t *testing.T) {
	var ls LazyRefSlots
	if ls.Peek() != nil {
		t.Fatal("peek before Get must be nil")
	}
	var wg sync.WaitGroup
	arrs := make([]*RefSlotArray, 16)
	for i := range arrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrs[i] = ls.Get(40)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(arrs); i++ {
		if arrs[i] != arrs[0] {
			t.Fatal("concurrent Get returned different arrays")
		}
	}
	if len(arrs[0].Slots) != 40 {
		t.Fatalf("slots=%d, want 40", len(arrs[0].Slots))
	}
	if ls.Peek() != arrs[0] {
		t.Fatal("peek after Get must return the array")
	}
}

func TestStatsViewAndBreakdown(t *testing.T) {
	var s Stats
	s.Start()
	s.Commit()
	s.Retry()
	s.Quiesce()
	s.Abort(CauseRAW)
	s.Abort(CauseRAW)
	s.Abort(CauseWAW)
	s.Abort(CauseCascade)
	s.Abort(CauseLockedWrite)
	s.Abort(CauseValidation)
	s.Abort(CauseKilledReader)
	s.Abort(CauseOrder)
	s.Abort(Cause(250)) // out of range folds into CauseNone
	v := s.View()
	if v.Starts != 1 || v.Commits != 1 || v.Retries != 1 || v.Quiesces != 1 {
		t.Fatalf("view = %+v", v)
	}
	if v.TotalAborts() != 9 {
		t.Fatalf("total aborts = %d, want 9", v.TotalAborts())
	}
	if v.AbortRatio() != 9 {
		t.Fatalf("ratio = %v", v.AbortRatio())
	}
	b := v.Breakdown()
	if b["read-after-write"] != 3.0/9 {
		t.Fatalf("raw fraction = %v", b["read-after-write"])
	}
	sum := 0.0
	for _, f := range b {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %v", sum)
	}
	if v.String() == "" {
		t.Fatal("empty String()")
	}
	var empty Stats
	if empty.View().AbortRatio() != 0 {
		t.Fatal("empty ratio must be 0")
	}
	eb := empty.View().Breakdown()
	if eb["cascade"] != 0 {
		t.Fatal("empty breakdown must be zeros")
	}
}

func TestAbortSignal(t *testing.T) {
	defer func() {
		c, ok := AbortCause(recover())
		if !ok || c != CauseWAW {
			t.Fatalf("AbortCause = %v, %v", c, ok)
		}
	}()
	PanicAbort(CauseWAW)
}

func TestAbortCauseForeignPanic(t *testing.T) {
	if _, ok := AbortCause("boom"); ok {
		t.Fatal("foreign panic recognized as abort")
	}
	if _, ok := AbortCause(nil); ok {
		t.Fatal("nil recognized as abort")
	}
}

func TestModeString(t *testing.T) {
	modes := []Mode{ModeSequential, ModeCooperative, ModeBlocked, ModeUnordered, ModeLite}
	for _, m := range modes {
		if m.String() == "unknown" {
			t.Errorf("mode %d unnamed", m)
		}
	}
	if Mode(42).String() != "unknown" {
		t.Error("invalid mode must be unknown")
	}
}

func TestEngineConfigNormalize(t *testing.T) {
	c := EngineConfig{}.Normalize()
	if c.TableBits != DefaultTableBits || c.MaxReaders != DefaultMaxReaders ||
		c.SpinBudget != DefaultSpinBudget || c.SigBits != DefaultSigBits {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.Order == nil || c.Stats == nil {
		t.Fatal("order/stats not allocated")
	}
	c2 := EngineConfig{TableBits: 10, MaxReaders: 4, SpinBudget: 2, SigBits: 128}.Normalize()
	if c2.TableBits != 10 || c2.MaxReaders != 4 || c2.SpinBudget != 2 || c2.SigBits != 128 {
		t.Fatalf("explicit values overwritten: %+v", c2)
	}
}

func TestOrderAtBaseAndHalt(t *testing.T) {
	o := NewOrderAt(1000)
	if o.Committed() != 1000 {
		t.Fatalf("base frontier = %d, want 1000", o.Committed())
	}
	if !o.Reachable(1000) || o.Reachable(1001) {
		t.Fatal("reachability at the base frontier is wrong")
	}
	if !o.WaitTurn(1000, nil) {
		t.Fatal("WaitTurn at the frontier must succeed immediately")
	}
	o.Complete(1000)
	if o.Committed() != 1001 {
		t.Fatalf("after Complete frontier = %d, want 1001", o.Committed())
	}

	// Halt cancels parked and future waits.
	var wg sync.WaitGroup
	results := make([]bool, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = o.WaitTurn(uint64(2000+i), nil)
		}(i)
	}
	o.Halt()
	wg.Wait()
	for i, turned := range results {
		if turned {
			t.Fatalf("waiter %d reported its turn after Halt", i)
		}
	}
	if !o.Halted() {
		t.Fatal("Halted() = false after Halt")
	}
	if o.WaitTurn(5000, nil) {
		t.Fatal("WaitTurn after Halt must fail")
	}
	done := make(chan struct{})
	go func() {
		o.WaitReachable(9000, nil) // must return immediately, not park
		close(done)
	}()
	<-done
}

// TestStatsViewPlus: Plus sums two views counter by counter, the way
// the sharded router adds up its shards.
func TestStatsViewPlus(t *testing.T) {
	var a, b Stats
	for i := 0; i < 5; i++ {
		a.Start()
		a.Commit()
	}
	a.Retry()
	a.Abort(CauseRAW)
	for i := 0; i < 3; i++ {
		b.Start()
		b.Commit()
	}
	b.Quiesce()
	b.Abort(CauseWAW)
	total := a.View().Plus(b.View())
	if total.Commits != 8 || total.Starts != 8 || total.Retries != 1 || total.Quiesces != 1 {
		t.Fatalf("summed view = %+v", total)
	}
	if total.Aborts[CauseRAW] != 1 || total.Aborts[CauseWAW] != 1 || total.TotalAborts() != 2 {
		t.Fatalf("summed aborts = %+v", total.Aborts)
	}
}
