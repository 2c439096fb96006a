package stm

import (
	"testing"
	"unsafe"
)

// TestStreamFillsWholeLines pins the stream at a whole number of
// 64-byte lines. The allocator then puts it in a size class whose
// objects all start on a line, so the pads between its groups of
// fields keep each group on the lines they were laid out for, in every
// allocation alike. At 480 bytes it would share the 480-byte class,
// which starts every other object half-way into a line.
func TestStreamFillsWholeLines(t *testing.T) {
	if n := unsafe.Sizeof(stream{}); n%64 != 0 {
		t.Fatalf("stream is %d bytes, want a multiple of 64 (pad its tail)", n)
	}
}
