package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// arena hands out zeroed memory the Go heap does not know about. The
// harness records one age and one result per transaction — hundreds of
// megabytes over a run. Kept on the heap they would be live bytes, the
// collector would pace itself against them, and the stack under test
// would run almost GC-free; mapped anonymously they cost it nothing,
// and pages are only touched as ages are reached.
type arena struct {
	maps [][]byte
}

func (a *arena) bytes(n int) ([]byte, error) {
	if n == 0 {
		n = 1
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mmap %d bytes: %w", n, err)
	}
	a.maps = append(a.maps, b)
	return b, nil
}

func (a *arena) u64(n int) ([]uint64, error) {
	b, err := a.bytes(n * 8)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
}

func (a *arena) u32(n int) ([]uint32, error) {
	b, err := a.bytes(n * 4)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), nil
}

// free unmaps everything; slices handed out must not be used after.
func (a *arena) free() {
	for _, b := range a.maps {
		_ = syscall.Munmap(b) // nothing to do about a failed unmap at teardown
	}
	a.maps = nil
}
