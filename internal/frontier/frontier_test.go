package frontier

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// memLog records what a Feed appends, with the more-is-coming hint,
// and is durable up to durable.
type memLog struct {
	ages     []uint64
	payloads []string
	more     []bool
	durable  uint64
	err      error // every append fails with it once set
}

func (l *memLog) Append(age uint64, p []byte) error { return l.AppendMore(age, p, false) }
func (l *memLog) Durable() uint64                   { return l.durable }

func (l *memLog) AppendMore(age uint64, p []byte, more bool) error {
	if l.err != nil {
		return l.err
	}
	l.ages, l.payloads, l.more = append(l.ages, age), append(l.payloads, string(p)), append(l.more, more)
	return nil
}

// resolution is one ticket the feed resolved.
type resolution struct {
	tk  int
	err error
}

func payload(age uint64) []byte { return []byte{'a' + byte(age%26)} }

// newFeed returns a feed of log from age first with a ring of size
// slots and ages [first, first+n) registered, each with its payload
// and ticket age+1, and the tickets it resolves.
func newFeed(log *memLog, first, n uint64, size int) (*Feed[int], *[]resolution) {
	var got []resolution
	f := NewFeed(log, first, size, func(tk int, err error) { got = append(got, resolution{tk, err}) })
	for age := first; age < first+n; age++ {
		f.Put(age, payload(age), int(age)+1, 1)
	}
	return f, &got
}

// checkLog fails unless the log holds exactly ages [first, next), each
// with its own payload.
func checkLog(t *testing.T, log *memLog, first, next uint64) {
	t.Helper()
	if uint64(len(log.ages)) != next-first {
		t.Fatalf("the log holds ages %v, want [%d, %d)", log.ages, first, next)
	}
	for i, age := range log.ages {
		if age != first+uint64(i) || log.payloads[i] != string(payload(age)) {
			t.Fatalf("record %d: age %d with payload %q", i, age, log.payloads[i])
		}
	}
}

func TestInOrder(t *testing.T) {
	log := &memLog{}
	f, _ := newFeed(log, 10, 0, 4)
	for age := uint64(10); age < 30; age++ {
		f.Put(age, payload(age), 0, 1)
		if n := f.Complete(age, 0); n != 1 {
			t.Fatalf("Complete(%d) appended %d ages, want 1", age, n)
		}
	}
	checkLog(t, log, 10, 30)
	if f.Next() != 30 || f.n != 0 || f.over != nil {
		t.Fatalf("frontier %d with %d held (overflow %v), want 30, none and no overflow", f.Next(), f.n, f.over)
	}
}

// TestOutOfOrder: an age completed ahead of the frontier waits for the
// ones below it; the run drains in age order once they are done.
func TestOutOfOrder(t *testing.T) {
	log := &memLog{}
	f, _ := newFeed(log, 0, 6, 8)
	for _, step := range []struct {
		done uint64
		next uint64 // the frontier after it
	}{
		{2, 0}, {1, 0}, {5, 0}, {0, 3}, {4, 3}, {3, 6},
	} {
		f.Complete(step.done, 0)
		if f.Next() != step.next {
			t.Fatalf("after Complete(%d): frontier %d, want %d", step.done, f.Next(), step.next)
		}
		checkLog(t, log, 0, step.next)
	}
}

// TestCollisionOverflows: an age still held when a later one comes round
// to its slot moves to overflow with its value and its done mark.
func TestCollisionOverflows(t *testing.T) {
	log := &memLog{}
	f, _ := newFeed(log, 0, 4, 4)
	f.Complete(1, 0)
	f.Put(4, payload(4), 0, 1) // slot 0: age 0 moves aside
	f.Put(5, payload(5), 0, 1) // slot 1: age 1, done, moves aside
	if e := f.At(0); e == nil || string(e.Payload) != string(payload(0)) {
		t.Fatalf("overflowed age 0 reads %v", e)
	}
	if len(f.over) != 2 || f.n != 6 {
		t.Fatalf("%d ages in overflow and %d held, want 2 and 6", len(f.over), f.n)
	}
	for _, age := range []uint64{5, 4, 3, 2} {
		f.Complete(age, 0)
	}
	checkLog(t, log, 0, 0)
	f.Complete(0, 0)
	checkLog(t, log, 0, 6)
	if f.n != 0 || len(f.over) != 0 || f.At(0) != nil || f.At(1) != nil {
		t.Fatal("appended ages are still held")
	}
}

// TestDrainStopsAtGap: a taken age — a withdrawn submission — holds the
// frontier below it for good, and completing it finds nothing.
func TestDrainStopsAtGap(t *testing.T) {
	log := &memLog{}
	f, _ := newFeed(log, 0, 8, 4)
	if _, ok := f.Take(3); !ok {
		t.Fatal("Take(3) found nothing")
	}
	for age := uint64(0); age < 8; age++ {
		f.Complete(age, 0)
	}
	checkLog(t, log, 0, 3)
	if f.Next() != 3 || f.n != 4 {
		t.Fatalf("frontier %d with %d held, want 3 and 4", f.Next(), f.n)
	}
}

// TestPendingCompletions: an age that waits for several completions (a
// cross-shard transaction's fences) is done at the last.
func TestPendingCompletions(t *testing.T) {
	log := &memLog{}
	f, _ := newFeed(log, 0, 2, 4)
	f.At(0).Pending = 3
	f.Complete(1, 0)
	f.Complete(0, 0)
	f.Complete(0, 0)
	checkLog(t, log, 0, 0)
	if n := f.Complete(0, 0); n != 2 {
		t.Fatalf("the last completion appended %d ages, want 2", n)
	}
	checkLog(t, log, 0, 2)
}

// TestFeedFIFOAtFrontier: tickets — registered with the age or
// attached at its completion — wait from their age's append, not its
// completion, until the durable frontier passes them, and leave in age
// order; the log is told whether another registered age is still to
// come.
func TestFeedFIFOAtFrontier(t *testing.T) {
	log := &memLog{}
	f, got := newFeed(log, 0, 6, 4)
	f.At(2).Ticket = 0 // no ticket
	f.At(3).Ticket = 0 // attached at completion, as the stream does
	f.At(5).Pending = 2
	f.Complete(1, 0)
	f.Complete(3, 4)
	f.Complete(0, 0)
	f.Complete(2, 0)
	if len(*got) != 0 {
		t.Fatalf("resolved %v before any sync", *got)
	}
	f.Synced(1, nil)
	f.Synced(1, nil)
	if want := []resolution{{1, nil}}; !slices.Equal(*got, want) {
		t.Fatalf("resolved %v below 1, want %v", *got, want)
	}
	f.Synced(4, nil)
	if want := []resolution{{1, nil}, {2, nil}, {4, nil}}; !slices.Equal(*got, want) {
		t.Fatalf("resolved %v below 4, want %v", *got, want)
	}
	log.durable = 5 // the log already holds age 4: it resolves at its append
	f.Complete(4, 0)
	f.Complete(5, 0) // one of two completions
	if want := []resolution{{1, nil}, {2, nil}, {4, nil}, {5, nil}}; !slices.Equal(*got, want) || f.Next() != 5 {
		t.Fatalf("resolved %v, frontier %d", *got, f.Next())
	}
	if n := f.Complete(5, 0); n != 1 || !slices.Equal(log.more, []bool{true, true, true, true, true, false}) {
		t.Fatalf("the last completion appended %d; hints %v", n, log.more)
	}
	f.Synced(6, nil)
	if len(*got) != 5 || f.head != len(f.q) {
		t.Fatalf("resolved %v; %d still waiting", *got, len(f.q)-f.head)
	}
}

// TestFeedReleaseRegrows: the FIFO slides its live tail down and
// regrows as tickets come and go, and never hands one out twice.
func TestFeedReleaseRegrows(t *testing.T) {
	log := &memLog{}
	f, got := newFeed(log, 0, 0, 8)
	var want []resolution
	for age := uint64(0); age < 200; age++ {
		f.Put(age, nil, int(age)+1, 1)
		f.Complete(age, 0)
		if age%7 == 6 {
			f.Synced(age-2, nil)
			for tk := len(want) + 1; tk <= int(age)-2; tk++ {
				want = append(want, resolution{tk, nil})
			}
		}
	}
	if !slices.Equal(*got, want) {
		t.Fatalf("resolved %d tickets out of order or twice", len(*got))
	}
}

// TestFeedFaultSweep: a log failure resolves every ticket of a
// completed age with it — appended or held behind a gap — and every
// later completion at once; Settle hands over the rest.
func TestFeedFaultSweep(t *testing.T) {
	boom := errors.New("boom")
	log := &memLog{}
	f, got := newFeed(log, 0, 8, 4)
	for _, age := range []uint64{0, 1, 3, 4} { // 0 and 1 appended, 3 and 4 behind 2
		f.Complete(age, 0)
	}
	f.Synced(0, boom)
	if want := []resolution{{1, boom}, {2, boom}, {4, boom}, {5, boom}}; !sameSet(*got, want) {
		t.Fatalf("resolved %v at the failure, want %v", *got, want)
	}
	*got = nil
	f.Complete(6, 0)
	if want := []resolution{{7, boom}}; !slices.Equal(*got, want) {
		t.Fatalf("a completion after the failure resolved %v, want %v", *got, want)
	}
	*got = nil
	f.Complete(2, 0) // the gap fills: 2 to 4 drain, and no ticket resolves twice
	if want := []resolution{{3, boom}}; !slices.Equal(*got, want) || f.Next() != 5 {
		t.Fatalf("resolved %v, frontier %d", *got, f.Next())
	}
	var rest []int
	f.Settle(func(tk int) { rest = append(rest, tk) })
	f.Settle(func(tk int) { rest = append(rest, -tk) })
	if slices.Sort(rest); !slices.Equal(rest, []int{6, 8}) {
		t.Fatalf("Settle handed over %v, want [6 8]", rest)
	}
	checkLog(t, log, 0, 2) // nothing reaches a failed log
}

// TestAppendFailure: the first failed append freezes the log's prefix;
// the tickets of that age and every later one resolve with the error.
func TestAppendFailure(t *testing.T) {
	boom := errors.New("boom")
	log := &memLog{}
	f, got := newFeed(log, 0, 4, 4)
	f.Complete(0, 0)
	log.err = boom
	f.Complete(1, 0)
	f.Complete(2, 0)
	if f.Err != boom || f.Next() != 3 {
		t.Fatalf("Err %v, frontier %d", f.Err, f.Next())
	}
	if want := []resolution{{2, boom}, {3, boom}}; !slices.Equal(*got, want) {
		t.Fatalf("resolved %v, want %v", *got, want)
	}
	checkLog(t, log, 0, 1)
}

func sameSet(a, b []resolution) bool {
	if len(a) != len(b) {
		return false
	}
	for _, r := range b {
		if !slices.Contains(a, r) {
			return false
		}
	}
	return true
}

// TestRandomSkew checks the feed against a model under random
// completion order and ring wrap, with overflow on most rounds.
func TestRandomSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	log := &memLog{}
	f, _ := newFeed(log, 0, 0, 8)
	var (
		next uint64
		live []uint64 // put, not completed
	)
	for f.Next() < 20000 {
		for len(live) < 1+rng.Intn(24) {
			f.Put(next, payload(next), 0, 1)
			live = append(live, next)
			next++
		}
		i := rng.Intn(len(live))
		f.Complete(live[i], 0)
		live = slices.Delete(live, i, i+1)
		if low := slices.Min(append([]uint64{next}, live...)); f.Next() != low {
			t.Fatalf("frontier %d, lowest unfinished age %d", f.Next(), low)
		}
		if f.n != int(next-f.Next()) {
			t.Fatalf("%d held, want %d", f.n, next-f.Next())
		}
	}
	checkLog(t, log, 0, f.Next())
}
