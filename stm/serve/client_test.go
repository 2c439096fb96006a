package serve

import "testing"

// TestCallRing: the pending ring finds calls by id across growth,
// wrap-around, out-of-order answers and a restarted window, and knows
// the ids it does not hold.
func TestCallRing(t *testing.T) {
	var r callRing
	calls := make([]Call, 1000)
	// Run 300 ahead of the answers: the ring must grow past 64 and 256.
	for i := 0; i < 300; i++ {
		r.put(uint64(i), &calls[i])
	}
	if r.take(300) != nil || r.take(1<<40) != nil {
		t.Fatal("took a call that was never put")
	}
	// Out of order: the window's base waits for the oldest.
	if r.take(5) != &calls[5] || r.take(5) != nil {
		t.Fatal("out-of-order take")
	}
	if r.base != 0 {
		t.Fatalf("base advanced to %d past unanswered id 0", r.base)
	}
	// Steady state: answer one, send one, around the ring several times.
	for i := 0; i < 700; i++ {
		if i != 5 && r.take(uint64(i)) != &calls[i] {
			t.Fatalf("take(%d) missed", i)
		}
		r.put(uint64(300+i), &calls[300+i])
	}
	if len(r.slots) != 512 {
		t.Fatalf("ring holds %d slots for a window of 300", len(r.slots))
	}
	for i := 700; i < 1000; i++ {
		if r.take(uint64(i)) != &calls[i] {
			t.Fatalf("take(%d) missed", i)
		}
	}
	if r.base != r.next {
		t.Fatalf("window [%d, %d) after every call was answered", r.base, r.next)
	}
	// An id gap (a failed write never sent some ids) restarts the window.
	var late Call
	r.put(5000, &late)
	if r.take(4999) != nil || r.take(5000) != &late {
		t.Fatal("restarted window")
	}
}
