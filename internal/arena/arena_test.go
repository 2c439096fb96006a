package arena

import (
	"bytes"
	"testing"
)

const arenaSize = 64 << 10

// TestArenaLiveBuffersNeverOverlap carves and releases in the order
// the server does — ingress ahead, the writer releasing marks behind —
// and checks after every step that each live buffer still holds what
// was written to it, whether the ring or the heap served it.
func TestArenaLiveBuffersNeverOverlap(t *testing.T) {
	type live struct {
		buf  []byte
		fill byte
		mark uint64
	}
	ar := New(arenaSize)
	var queue []live
	seed := uint32(1)
	rnd := func(n int) int {
		seed = seed*1664525 + 1013904223
		return int(seed>>8) % n
	}
	check := func(step int) {
		for i, l := range queue {
			if !bytes.Equal(l.buf, bytes.Repeat([]byte{l.fill}, len(l.buf))) {
				t.Fatalf("step %d: live buffer %d of %d was overwritten", step, i, len(queue))
			}
		}
	}
	for step := 0; step < 20000; step++ {
		// Sizes up to a quarter of the ring, so that wrap padding, a full
		// ring and the heap fallback all occur.
		n := rnd(arenaSize / 4)
		if step%7 == 0 {
			n = rnd(64)
		}
		b := ar.Alloc(n)
		if len(b) != n {
			t.Fatalf("step %d: alloc(%d) returned %d bytes", step, n, len(b))
		}
		fill := byte(step)
		for i := range b {
			b[i] = fill
		}
		queue = append(queue, live{b, fill, ar.Mark()})
		check(step)
		for len(queue) > 0 && rnd(3) != 0 {
			ar.Release(queue[0].mark)
			queue = queue[1:]
		}
	}
	if ar.head < 8*arenaSize {
		t.Fatalf("ring carved %d bytes in all: it is not being recycled", ar.head)
	}
}

// TestArenaSteadyStateAllocatesNothing: an owner whose releases keep
// up with its carving never leaves the ring.
func TestArenaSteadyStateAllocatesNothing(t *testing.T) {
	ar := New(arenaSize)
	if n := testing.AllocsPerRun(10000, func() {
		for i := 0; i < 8; i++ {
			_ = ar.Alloc(100)
		}
		ar.Release(ar.Mark())
	}); n != 0 {
		t.Fatalf("%v allocations per burst, want 0", n)
	}
}
