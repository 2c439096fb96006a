//go:build !race

// The allocation pins run without the race detector, which adds
// allocations of its own.

package wal

import "testing"

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
