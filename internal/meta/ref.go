package meta

import (
	"sync"
	"sync/atomic"
)

// This file is the generation-stamped reference machinery that makes
// descriptor recycling safe. When every attempt got a brand-new
// descriptor, a stale pointer found in a lock word or reader slot
// always denoted a finalized attempt, so CAS-based claims could never
// suffer ABA. Per-worker freelists break that property: a pointer can
// be compare-and-swapped *after* the descriptor it names has been
// recycled into a live attempt that re-acquired the very same record,
// silently stealing a live lock. No pointer-only protocol closes that
// race, so shared engine metadata stores a Ref instead: the
// descriptor's registry index packed with the generation of the life
// that published it. A claim CAS then compares (index, generation)
// values and cannot cross a life boundary, and a resolver checks the
// referenced descriptor's current generation (StatusWord.LoadLife)
// against the Ref's to detect staleness exactly.

// Ref is a packed generation-stamped descriptor reference: registry
// index in the high bits, the publishing life's generation (truncated)
// in the low bits. Two small values are reserved for the non-reference
// sentinels every engine needs in a lock word.
type Ref uint64

const (
	// RefNil is the empty reference (unlocked / free slot).
	RefNil Ref = 0
	// RefBusy parks a lock word during a short critical section (the
	// BUSY sentinel of Algorithms 2-4); it never resolves.
	RefBusy Ref = 1

	refIdxBits = 22 // up to ~4M live descriptors per engine
	refGenBits = 64 - refIdxBits
	refGenMask = 1<<refGenBits - 1
	// refIdxBias keeps every real reference above the sentinels.
	refIdxBias = 2
)

// MakeRef packs a registry index and a life generation. Generations
// are truncated to refGenBits; a collision needs the same descriptor
// observed 2^42 lives apart, beyond any physical run.
func MakeRef(idx uint32, gen uint64) Ref {
	return Ref((uint64(idx)+refIdxBias)<<refGenBits | gen&refGenMask)
}

// IsTxn reports whether r names a descriptor (not a sentinel).
func (r Ref) IsTxn() bool { return uint64(r)>>refGenBits >= refIdxBias }

// Idx returns the registry index of a descriptor reference.
func (r Ref) Idx() uint32 { return uint32(uint64(r)>>refGenBits) - refIdxBias }

// Gen returns the (truncated) generation the reference was made with.
func (r Ref) Gen() uint64 { return uint64(r) & refGenMask }

// SameLife reports whether the resolved descriptor's current life is
// the one this reference was published in. A false result means the
// reference is stale: the life it named has finalized (recycling
// requires a final status first), so the reference must be treated
// exactly as a reference to a finalized descriptor was treated before
// recycling existed.
func (r Ref) SameLife(l Life) bool { return l.Gen()&refGenMask == r.Gen() }

// RefWord is an atomically updated Ref (a lock word or reader slot).
type RefWord struct{ w atomic.Uint64 }

// Load returns the current reference.
func (w *RefWord) Load() Ref { return Ref(w.w.Load()) }

// Store publishes r unconditionally (owner-side transitions only).
func (w *RefWord) Store(r Ref) { w.w.Store(uint64(r)) }

// CAS replaces old with new and reports success. Because generations
// are part of the compared value, the claim cannot succeed across a
// descriptor recycle (the ABA the stamps exist to prevent).
func (w *RefWord) CAS(old, new Ref) bool {
	return w.w.CompareAndSwap(uint64(old), uint64(new))
}

// Registry resolves Ref indices back to descriptors for one engine.
// Resolution is a lock-free two-level lookup on every hot-path
// dereference; registration appends into fixed-size blocks so only the
// (small) block directory is ever copied — Add stays O(1) even when a
// run opts out of recycling and registers one descriptor per attempt.
type Registry[T any] struct {
	mu   sync.Mutex
	n    uint32 // registered count (guarded by mu)
	snap atomic.Pointer[[]*regBlock[T]]
}

const (
	regBlockBits = 10 // 1024 descriptors per block
	regBlockSize = 1 << regBlockBits
	regBlockMask = regBlockSize - 1
)

type regBlock[T any] struct {
	slots [regBlockSize]atomic.Pointer[T]
}

// Add registers d and returns its stable index. The index space is
// bounded by the Ref packing (refIdxBits); exceeding it would make
// MakeRef alias earlier references — silent descriptor confusion — so
// exhaustion panics instead. Recycling pools register descriptors
// only on allocation (bounded by concurrency); the bound is only
// approachable when recycling is disabled, one descriptor per attempt.
func (r *Registry[T]) Add(d *T) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.n
	if uint64(idx)+refIdxBias >= 1<<refIdxBits {
		panic("meta: descriptor registry exhausted (Ref index space); " +
			"enable descriptor recycling instead of fresh per-attempt descriptors")
	}
	var dir []*regBlock[T]
	if p := r.snap.Load(); p != nil {
		dir = *p
	}
	if int(idx>>regBlockBits) == len(dir) {
		next := make([]*regBlock[T], len(dir)+1)
		copy(next, dir)
		next[len(dir)] = &regBlock[T]{}
		r.snap.Store(&next)
		dir = next
	}
	dir[idx>>regBlockBits].slots[idx&regBlockMask].Store(d)
	r.n = idx + 1
	return idx
}

// At resolves an index previously returned by Add.
func (r *Registry[T]) At(idx uint32) *T {
	return (*r.snap.Load())[idx>>regBlockBits].slots[idx&regBlockMask].Load()
}

// Len returns the number of registered descriptors (tests, stats).
func (r *Registry[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.n)
}

// RefSlotArray is a bounded visible-readers array: one slot per
// concurrent reader of a lock record (the paper bounds it at 40). A
// slot holds the reader's Ref and is free when empty or when its
// occupant reference is stale or final.
type RefSlotArray struct {
	Slots []RefWord
}

// LazyRefSlots defers allocating the reader array until a lock record
// is first read transactionally, keeping the lock table compact (a
// record with an inline 40-slot array would be ~50x larger).
type LazyRefSlots struct {
	p atomic.Pointer[RefSlotArray]
}

// Get returns the slot array, allocating it with n slots on first use.
func (l *LazyRefSlots) Get(n int) *RefSlotArray {
	if a := l.p.Load(); a != nil {
		return a
	}
	a := &RefSlotArray{Slots: make([]RefWord, n)}
	if l.p.CompareAndSwap(nil, a) {
		return a
	}
	return l.p.Load()
}

// Peek returns the slot array if it has been allocated, else nil.
// Writers use it: if no reader array exists, there are no readers to
// abort.
func (l *LazyRefSlots) Peek() *RefSlotArray { return l.p.Load() }
