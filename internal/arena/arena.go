// Package arena is a single-producer single-consumer byte ring for
// buffers that are released in the order they were carved: the payload
// memory of one stm/serve connection and of one stm/repl follower
// stream, so that a frame read off the wire costs no allocation.
package arena

import "sync/atomic"

// Ring is a byte ring its producer carves buffers from and its
// consumer gives back. Buffers are released by an advancing mark — the
// owner's rule for when the bytes are dead decides where the mark may
// go; whatever does not fit goes to the heap.
//
// One producer (Alloc, Mark) and one consumer (Release): head is the
// producer's own, tail is the only shared word.
type Ring struct {
	buf  []byte
	head uint64        // bytes ever carved, wrap padding included
	tail atomic.Uint64 // bytes released
}

// New returns a ring of size bytes.
func New(size int) *Ring { return &Ring{buf: make([]byte, size)} }

// Alloc returns an n-byte buffer: a contiguous piece of the ring when
// one is free, else a fresh slice.
func (a *Ring) Alloc(n int) []byte {
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

// Mark is the release point covering everything carved so far.
func (a *Ring) Mark() uint64 { return a.head }

// Release frees every buffer carved before mark was taken.
func (a *Ring) Release(mark uint64) { a.tail.Store(mark) }
