package stm

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestWindowNarrowsAndRegrows: the run-ahead window in force halves
// when an exposed attempt fails at the commit frontier, never below
// 2*Workers, and regrows by one per clean commit back to Config.Window.
// A contended phase (every age read-modify-writes one hot Var, yielding
// in between so attempts overlap) must narrow it; a conflict-free phase
// at least Config.Window ages long must restore it.
func TestWindowNarrowsAndRegrows(t *testing.T) {
	const workers = 4
	p, err := NewPipeline(Config{Algorithm: OWB, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.l.pinSpeculative() // the window only moves under speculation
	ceiling, floor := uint64(p.cfg.Window), uint64(2*workers)
	var low atomic.Uint64 // the narrowest window any body saw
	low.Store(ceiling)
	observe := func() {
		w := p.l.window.Load()
		for m := low.Load(); w < m && !low.CompareAndSwap(m, w); m = low.Load() {
		}
	}
	hot := &NewVars(1)[0]
	for round := 0; round < 50 && low.Load() == ceiling; round++ {
		for i := 0; i < 2000; i++ {
			if _, err := p.Submit(func(tx Tx, age int) {
				observe()
				x := tx.Read(hot)
				runtime.Gosched()
				tx.Write(hot, x+1)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if got := low.Load(); got == ceiling || got < floor {
		t.Fatalf("the window stayed in [%d, %d] under contention at %d; want it narrowed, not below %d",
			got, ceiling, ceiling, floor)
	}
	own := NewVars(int(ceiling) * 4)
	for i := range own {
		v := &own[i]
		if _, err := p.Submit(func(tx Tx, age int) { tx.Write(v, tx.Read(v)+1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := p.l.window.Load(); got != ceiling {
		t.Fatalf("after %d conflict-free ages the window is %d, want Config.Window %d", len(own), got, ceiling)
	}
}
