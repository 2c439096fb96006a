package serve

import "sync/atomic"

// arenaSize is a connection's payload ring: the size of its read
// buffer, and room for every in-flight request of a stream whose
// payloads are not unusually large (the response queue holds a few
// hundred entries). Whatever does not fit goes to the heap.
const arenaSize = 64 << 10

// arena is one connection's request-payload memory: a byte ring the
// ingress loop carves payload buffers from and the response writer
// gives back, so a request frame costs no allocation.
//
// Lifetime rule. The pipeline keeps a submitted payload until its
// ticket resolves — the SubmitEncoded contract: the body may alias it
// until commit, the log copies it at the commit frontier, and under
// WaitDurable resolution waits for the fsync — so a buffer is released
// only after its ticket resolved. Responses are written in submission
// order, which makes release a single advancing mark: the writer
// releases up to an entry's mark only once that entry and every entry
// before it has resolved. (Deadline frames, whose response may
// precede resolution, never live here; see readRequestFrame.)
//
// One producer (ingress) and one consumer (the writer): head is the
// producer's own, tail is the only shared word.
type arena struct {
	buf  []byte
	head uint64        // bytes ever carved, wrap padding included
	tail atomic.Uint64 // bytes released
}

func newArena() *arena { return &arena{buf: make([]byte, arenaSize)} }

// alloc returns an n-byte buffer: a contiguous piece of the ring when
// one is free, else a fresh slice.
func (a *arena) alloc(n int) []byte {
	size, need := uint64(len(a.buf)), uint64(n)
	pos := a.head % size
	var pad uint64
	if pos+need > size {
		pad, pos = size-pos, 0 // does not fit before the end: start over at the front
	}
	if a.head+pad+need-a.tail.Load() > size {
		return make([]byte, n)
	}
	a.head += pad + need
	return a.buf[pos : pos+need : pos+need]
}

// mark is the release point covering everything carved so far.
func (a *arena) mark() uint64 { return a.head }

// release frees every buffer carved before mark was taken.
func (a *arena) release(mark uint64) { a.tail.Store(mark) }
