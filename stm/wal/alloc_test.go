//go:build !race

// The allocation pins run without the race detector, which adds
// allocations of its own.

package wal

import (
	"bytes"
	"runtime"
	"testing"
)

// TestRecordCRCAllocatesNothing: the checksum every reader of the log
// computes per record — recovery, the cursor, a replication follower —
// keeps its header on the stack.
func TestRecordCRCAllocatesNothing(t *testing.T) {
	payload := []byte("a transfer request")
	if n := testing.AllocsPerRun(1000, func() {
		if RecordCRC(7, payload) == 0 {
			t.Fatal("checksum 0")
		}
	}); n != 0 {
		t.Fatalf("RecordCRC: %v allocations, want 0", n)
	}
	frame := appendRecord(nil, 7, payload)
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, _, err := ParseFrame(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseFrame: %v allocations, want 0", n)
	}
}

// TestCursorAllocs: Next allocates the payload it returns and nothing
// else; AppendFrames, given room in dst, allocates nothing however
// many records it copies.
func TestCursorAllocs(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 4000
	fill(t, w, 0, n)
	limit := w.Durable()

	cur, _ := NewCursor(dir, 0)
	defer cur.Close()
	if _, _, ok, err := cur.Next(limit); !ok || err != nil { // opens the segment
		t.Fatalf("first record: ok %v, err %v", ok, err)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if _, _, ok, err := cur.Next(limit); !ok || err != nil {
			t.Fatalf("Next: ok %v, err %v", ok, err)
		}
	}); got != 1 {
		t.Fatalf("Cursor.Next: %v allocations per record, want 1 (the payload)", got)
	}

	dst := make([]byte, 0, 64<<10)
	if got := testing.AllocsPerRun(100, func() {
		if _, _, got, err := cur.AppendFrames(dst, limit, 16*int(FrameSize(make([]byte, 3)))); got != 16 || err != nil {
			t.Fatalf("AppendFrames: %d records, err %v", got, err)
		}
	}); got != 0 {
		t.Fatalf("Cursor.AppendFrames: %v allocations per 16-record range, want 0", got)
	}
}

// TestRecoverHoldsNoPayloads: Recover validates and counts; it keeps
// no record. A Recovery over a multi-segment log of tens of MiB costs
// the heap next to nothing while held, with a checkpoint and without,
// and Replay streams exactly the written suffix from disk.
func TestRecoverHoldsNoPayloads(t *testing.T) {
	const (
		n       = 10000
		size    = 4 << 10 // 10000 records: 39 MiB of payloads
		ckptAge = 1000
	)
	payload := func(age uint64) []byte {
		p := bytes.Repeat([]byte{byte(age), byte(age >> 8)}, size/2)
		p[0] ^= 0xFF
		return p
	}
	for _, ckpt := range []bool{false, true} {
		dir := t.TempDir()
		w, err := Create(dir, 0, Options{SegmentBytes: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for age := uint64(0); age < n; age++ {
			if err := w.Append(age, payload(age)); err != nil {
				t.Fatal(err)
			}
			if ckpt && age+1 == ckptAge {
				if err := w.Checkpoint(ckptAge, []byte("state")); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 4<<20 {
			t.Errorf("checkpoint %v: the heap grew %d KiB while the Recovery is held, want under 4 MiB", ckpt, grew>>10)
		}
		first := uint64(0)
		if ckpt {
			first = ckptAge
		}
		if r.First() != first || r.Next() != n || r.Count() != int(n-first) {
			t.Fatalf("checkpoint %v: first %d next %d count %d, want %d %d %d", ckpt, r.First(), r.Next(), r.Count(), first, n, n-first)
		}
		want := first
		if err := r.Replay(func(age uint64, p []byte) error {
			if age != want || !bytes.Equal(p, payload(age)) {
				t.Fatalf("checkpoint %v: replay yielded age %d, want %d with its payload", ckpt, age, want)
			}
			want++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want != n {
			t.Fatalf("checkpoint %v: replay stopped at %d, want %d", ckpt, want, n)
		}
	}
}
