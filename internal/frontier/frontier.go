// Package frontier is the contiguous-frontier tracker behind the
// write-ahead log's feed: ages are registered in order, finish in any
// order, and are handed on only as a contiguous prefix — the paper's
// commit rule, applied to what reaches the log. stm's durable stream
// feeds one Feed through its commit reports, and stm/shard's router
// feeds one global-age Feed through every shard's.
package frontier

import "math"

// Tracker maps in-flight ages to values. The ages live in a ring sized
// to the owner's in-flight bound, each slot tagged with its age; an age
// still held when a later one comes round to its slot (commit-order
// skew) moves to the one overflow map. A Tracker has no lock: the
// owner's mutex serializes every call. In steady state — no skew
// beyond the ring — it allocates nothing.
type Tracker[V any] struct {
	slots []slot[V]
	mask  uint64
	over  map[uint64]*slot[V] // nil until the first collision
	n     int                 // ages held
}

type slot[V any] struct {
	age uint64
	st  uint8 // free, held or done
	v   V
}

const (
	free = iota
	held
	done
)

// New returns a tracker with a ring of at least size slots.
func New[V any](size int) *Tracker[V] {
	n := 1
	for n < size {
		n <<= 1
	}
	return &Tracker[V]{slots: make([]slot[V], n), mask: uint64(n - 1)}
}

// Put registers age, which must not be held already, with v.
func (t *Tracker[V]) Put(age uint64, v V) { t.claim(age).v = v }

// claim returns the slot age is registered in, its value still to be
// written: an older age still in it moves to the overflow map.
func (t *Tracker[V]) claim(age uint64) *slot[V] {
	sl := &t.slots[age&t.mask]
	if sl.st != free {
		if t.over == nil {
			t.over = make(map[uint64]*slot[V])
		}
		o := *sl
		t.over[o.age] = &o
	}
	sl.age, sl.st = age, held
	t.n++
	return sl
}

func (t *Tracker[V]) find(age uint64) *slot[V] {
	if sl := &t.slots[age&t.mask]; sl.st != free && sl.age == age {
		return sl
	}
	if len(t.over) == 0 {
		return nil
	}
	return t.over[age]
}

func (t *Tracker[V]) remove(sl *slot[V]) {
	if rs := &t.slots[sl.age&t.mask]; rs == sl {
		var zero V
		rs.st, rs.v = free, zero
	} else {
		delete(t.over, sl.age)
	}
	t.n--
}

// At returns age's value for the caller to update in place, nil if
// age is not held. The pointer is good until the next Put or removal.
func (t *Tracker[V]) At(age uint64) *V {
	if sl := t.find(age); sl != nil {
		return &sl.v
	}
	return nil
}

// Take removes age and returns its value; ok is false if age was not
// held. In a Feed, a taken age is a gap the frontier never passes.
func (t *Tracker[V]) Take(age uint64) (v V, ok bool) {
	sl := t.find(age)
	if sl == nil {
		return v, false
	}
	v = sl.v
	t.remove(sl)
	return v, true
}

// Range calls fn with every held age and its value, in no particular
// order; fn may update the value. It walks the whole ring: it is for
// fault sweeps, not the commit path.
func (t *Tracker[V]) Range(fn func(age uint64, v *V)) {
	for i := range t.slots {
		if sl := &t.slots[i]; sl.st != free {
			fn(sl.age, &sl.v)
		}
	}
	for age, sl := range t.over {
		fn(age, &sl.v)
	}
}

// Log is the part of a write-ahead log a Feed appends to
// (stm.DurableLog).
type Log interface {
	Append(age uint64, payload []byte) error
	Durable() uint64
}

// burstLog is the optional Log extension (stm.DurableLog's AppendMore).
type burstLog interface {
	AppendMore(age uint64, payload []byte, more bool) error
}

// Entry is what a Feed holds for one registered age.
type Entry[T comparable] struct {
	Payload []byte
	Ticket  T   // resolved once the age is durable; the zero T is none
	Pending int // completions still outstanding; the age is done at zero
}

// Feed is a Tracker that hands a write-ahead log its record sequence:
// Put registers an age at submission, Complete marks it done at commit
// and drains the contiguous run, so the log gets the payload of every
// age strictly in age order. A ticket waits in a FIFO from its age's
// append until the log's durable frontier passes it (WaitDurable);
// appends happen in age order, so the FIFO is sorted by construction.
type Feed[T comparable] struct {
	*Tracker[Entry[T]]
	next    uint64 // the frontier: the first age not appended
	log     Log
	burst   burstLog       // log, when it takes the hint; else nil
	resolve func(T, error) // err is Err, or nil once durable
	q       []waiter[T]    // appended tickets in age order; q[head:] wait
	head    int
	every   uint64 // appended ages per kick; 0 without
	since   uint64 // appended ages since the last kick
	kick    chan<- struct{}
	// Err is the first log failure: the durable prefix is frozen, and
	// every ticket resolves with it.
	Err error
}

type waiter[T any] struct {
	age uint64
	t   T
}

// NewFeed returns a feed of log whose first age is first, with a ring
// of at least size slots, that resolves tickets through resolve.
func NewFeed[T comparable](log Log, first uint64, size int, resolve func(tk T, err error)) *Feed[T] {
	f := &Feed[T]{Tracker: New[Entry[T]](size), next: first, log: log, resolve: resolve}
	f.burst, _ = log.(burstLog)
	return f
}

// Put registers age with its payload, its ticket (the zero T for none
// yet) and the number of completions it waits for.
func (f *Feed[T]) Put(age uint64, payload []byte, tk T, pending int) {
	e := &f.claim(age).v
	e.Payload, e.Ticket, e.Pending = payload, tk, pending
}

// Next returns the frontier: every age below it has been appended.
func (f *Feed[T]) Next() uint64 { return f.next }

// Kick makes the feed signal kick, without blocking, each time another
// every ages have reached the log (the automatic checkpoint trigger).
func (f *Feed[T]) Kick(every uint64, kick chan<- struct{}) { f.every, f.kick = every, kick }

// Complete counts one completion of a registered age (a withdrawn one
// is ignored); a tk other than the zero T becomes its ticket. At the
// last completion the age is done, and Complete appends the run the
// frontier can now pass: each ticket then resolves at once if its age
// is durable already, or waits for Synced. It returns how many ages it
// appended.
func (f *Feed[T]) Complete(age uint64, tk T) uint64 {
	sl := f.find(age)
	if sl == nil {
		return 0
	}
	var zero T
	if tk != zero {
		sl.v.Ticket = tk
	}
	if sl.v.Pending--; sl.v.Pending > 0 {
		return 0
	}
	if f.Err != nil && sl.v.Ticket != zero {
		f.resolve(sl.v.Ticket, f.Err)
		sl.v.Ticket = zero
	}
	sl.st = done
	start := f.next
	if age != f.next {
		sl = f.find(f.next)
	}
	for ; sl != nil && sl.st == done; sl = f.find(f.next) {
		age, p, tk := f.next, sl.v.Payload, sl.v.Ticket
		f.remove(sl)
		f.next++
		if f.Err == nil {
			if f.burst != nil {
				// More is coming when a registered age lies above this one.
				f.Err = f.burst.AppendMore(age, p, f.n > 0)
			} else {
				f.Err = f.log.Append(age, p)
			}
		}
		switch {
		case tk == zero:
		case f.Err != nil:
			f.resolve(tk, f.Err)
		case age < f.log.Durable():
			f.resolve(tk, nil)
		default:
			f.push(age, tk)
		}
	}
	n := f.next - start
	if f.every > 0 {
		if f.since += n; f.since >= f.every {
			f.since = 0
			select {
			case f.kick <- struct{}{}:
			default: // a kick is already pending
			}
		}
	}
	return n
}

func (f *Feed[T]) push(age uint64, tk T) {
	if len(f.q) == cap(f.q) && f.head > len(f.q)/2 {
		// Mostly released: slide the live tail down instead of growing.
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, waiter[T]{age, tk})
}

// release dequeues the oldest waiting ticket if its age is below
// durable.
func (f *Feed[T]) release(durable uint64) (tk T, ok bool) {
	if f.head == len(f.q) || f.q[f.head].age >= durable {
		return tk, false
	}
	tk = f.q[f.head].t
	f.q[f.head] = waiter[T]{}
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return tk, true
}

// Synced is the log's durability observer: every age below next is on
// stable storage, so the tickets waiting for it resolve. A log failure
// (err, or Err from before) resolves every ticket of a completed age
// with Err instead.
func (f *Feed[T]) Synced(next uint64, err error) {
	if f.Err == nil {
		f.Err = err
	}
	if f.Err != nil {
		next = math.MaxUint64
		var zero T
		f.Range(func(_ uint64, e *Entry[T]) {
			if e.Pending == 0 && e.Ticket != zero {
				f.resolve(e.Ticket, f.Err)
				e.Ticket = zero
			}
		})
	}
	for tk, ok := f.release(next); ok; tk, ok = f.release(next) {
		f.resolve(tk, f.Err)
	}
}

// Settle hands fail every ticket still unresolved — waiting for
// durability, or held with an age that never reached the log — at
// teardown.
func (f *Feed[T]) Settle(fail func(T)) {
	for tk, ok := f.release(math.MaxUint64); ok; tk, ok = f.release(math.MaxUint64) {
		fail(tk)
	}
	var zero T
	f.Range(func(_ uint64, e *Entry[T]) {
		if e.Ticket != zero {
			fail(e.Ticket)
			e.Ticket = zero
		}
	})
}
