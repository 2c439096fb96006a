package meta

import "sync"

// TxnPool is a worker-local descriptor allocator. The run-loop gives
// each of its goroutines (workers and the validator) one pool; NewTxn
// either recycles a retired descriptor — reusing its readRefs/writes
// backing arrays and advancing its generation — or falls back to a
// fresh allocation. Retire hands back a *finalized* attempt; the pool
// may cache it or spill it to the engine-wide depot. Pools are not
// safe for concurrent use; cross-goroutine balance flows through the
// engine's depot.
type TxnPool interface {
	NewTxn(age uint64) Txn
	Retire(t Txn)
}

// PoolEngine is implemented by engines whose descriptors support
// generation-stamped recycling. Engines that do not implement it run
// exactly as before: one fresh descriptor per attempt, reclaimed by
// the GC.
type PoolEngine interface {
	Engine
	NewPool() TxnPool
}

// cacheCap bounds a worker-local freelist; above it, half the cache
// spills to the shared depot in one batch, so steady-state recycling
// touches the depot lock only once per cacheCap/2 retirements even
// when different goroutines produce and consume descriptors (the
// flat-combining validator retires attempts created by workers).
const cacheCap = 32

// Depot is the engine-wide overflow shared by that engine's worker
// caches. All operations move batches, amortizing the lock.
type Depot[T any] struct {
	mu    sync.Mutex
	items []*T
}

// Grab moves up to n items from the depot into dst and returns the
// extended slice.
func (d *Depot[T]) Grab(dst []*T, n int) []*T {
	d.mu.Lock()
	k := len(d.items)
	if k > n {
		k = n
	}
	dst = append(dst, d.items[len(d.items)-k:]...)
	d.items = d.items[:len(d.items)-k]
	d.mu.Unlock()
	return dst
}

// Put moves items into the depot.
func (d *Depot[T]) Put(items []*T) {
	if len(items) == 0 {
		return
	}
	d.mu.Lock()
	d.items = append(d.items, items...)
	d.mu.Unlock()
}

// Len returns the current depot population (tests).
func (d *Depot[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

// Cache is the engine-agnostic half of a worker-local freelist: a
// bounded local stack backed by the engine's depot. Engine pools wrap
// it with their descriptor reset/renew logic.
type Cache[T any] struct {
	depot *Depot[T]
	free  []*T
}

// NewCache returns a worker-local cache over the given depot.
func NewCache[T any](d *Depot[T]) *Cache[T] {
	return &Cache[T]{depot: d, free: make([]*T, 0, cacheCap)}
}

// Get pops a recycled descriptor, refilling from the depot when the
// local stack is empty. It returns nil when nothing is available and
// the caller must allocate.
func (c *Cache[T]) Get() *T {
	if len(c.free) == 0 {
		c.free = c.depot.Grab(c.free, cacheCap/2)
		if len(c.free) == 0 {
			return nil
		}
	}
	t := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return t
}

// Put caches a retired descriptor, spilling half the stack to the
// depot when full.
func (c *Cache[T]) Put(t *T) {
	if len(c.free) >= cacheCap {
		half := len(c.free) / 2
		c.depot.Put(c.free[half:])
		c.free = append(c.free[:half:cap(c.free)], t)
		return
	}
	c.free = append(c.free, t)
}
