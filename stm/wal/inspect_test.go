package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fill appends ages [from, to) with small payloads and syncs.
func fill(t *testing.T, w *Writer, from, to uint64) {
	t.Helper()
	for age := from; age < to; age++ {
		if err := w.Append(age, []byte{byte(age), byte(age >> 8), 0xAB}); err != nil {
			t.Fatalf("append %d: %v", age, err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestSegmentsListing(t *testing.T) {
	dir := t.TempDir()
	// Empty/missing directories list cleanly.
	if segs, err := Segments(filepath.Join(dir, "nope")); err != nil || len(segs) != 0 {
		t.Fatalf("missing dir: segs=%v err=%v", segs, err)
	}
	w, err := Create(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, w, 0, 20)
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments with 64-byte cap, got %d", len(segs))
	}
	for i, s := range segs {
		if i > 0 && s.FirstAge <= segs[i-1].FirstAge {
			t.Fatalf("segments out of order: %v", segs)
		}
		st, err := os.Stat(s.Path)
		if err != nil {
			t.Fatalf("stat %s: %v", s.Path, err)
		}
		if st.Size() != s.Size {
			t.Fatalf("segment %016x: Size %d, stat says %d", s.FirstAge, s.Size, st.Size())
		}
	}
	if segs[0].FirstAge != 0 {
		t.Fatalf("first segment at %d, want 0", segs[0].FirstAge)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointsAndRead(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, w, 0, 10)
	if err := w.Checkpoint(5, []byte("state@5")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(10, []byte("state@10")); err != nil {
		t.Fatal(err)
	}
	ages, err := Checkpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ages) != 2 || ages[0] != 5 || ages[1] != 10 {
		t.Fatalf("checkpoint ages %v, want [5 10]", ages)
	}
	state, err := ReadCheckpoint(dir, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "state@10" {
		t.Fatalf("state %q", state)
	}
	if _, err := ReadCheckpoint(dir, 7); err == nil {
		t.Fatal("reading a checkpoint that does not exist should fail")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordCRCMatchesFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the exported checksum must equal the on-disk one")
	if err := w.Append(3, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir) // Recover verifies the stored CRC
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 1 {
		t.Fatalf("recovered %d records", rec.Count())
	}
	// Cross-check: the frame Recover accepted carries exactly RecordCRC.
	if got := RecordCRC(3, payload); got != recordCRC(uint32(len(payload)), 3, payload) {
		t.Fatalf("RecordCRC disagrees with the private frame checksum: %08x", got)
	}
	if FrameSize(payload) != recordSize(payload) {
		t.Fatal("FrameSize disagrees with the private frame size")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorWalksLiveLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fill(t, w, 0, 50)

	c, err := NewCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got uint64
	for {
		age, payload, ok, err := c.Next(w.Durable())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if age != got {
			t.Fatalf("cursor returned age %d, want %d", age, got)
		}
		if len(payload) != 3 || payload[0] != byte(age) {
			t.Fatalf("age %d payload %x", age, payload)
		}
		got++
	}
	if got != 50 {
		t.Fatalf("cursor stopped at %d, want 50", got)
	}
	if c.Segments() < 2 {
		t.Fatalf("cursor crossed %d segments, expected several", c.Segments())
	}

	// The writer keeps appending; the same cursor picks up the new tail.
	fill(t, w, 50, 60)
	for {
		age, _, ok, err := c.Next(w.Durable())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if age != got {
			t.Fatalf("tail: age %d, want %d", age, got)
		}
		got++
	}
	if got != 60 {
		t.Fatalf("cursor frontier %d after tail append, want 60", got)
	}
}

func TestCursorMidLogStartAndLimit(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fill(t, w, 0, 40)

	c, err := NewCursor(dir, 17) // mid-segment resume: open() must skip to it
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	age, _, ok, err := c.Next(w.Durable())
	if err != nil || !ok || age != 17 {
		t.Fatalf("mid-log start: age=%d ok=%v err=%v", age, ok, err)
	}
	// A limit below the durable frontier stops the cursor early.
	last := age
	for {
		age, _, ok, err = c.Next(25)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		last = age
	}
	if last != 24 {
		t.Fatalf("cursor crossed limit: last age %d, want 24", last)
	}
}

func TestCursorCompacted(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fill(t, w, 0, 40)
	// Two checkpoints so pruning truncates segments below the older one.
	if err := w.Checkpoint(20, []byte("s20")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(35, []byte("s35")); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].FirstAge == 0 {
		t.Fatalf("expected pruning to drop the oldest segments: %+v", segs)
	}
	c, err := NewCursor(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.Next(w.Durable()); !errors.Is(err, ErrCompacted) {
		t.Fatalf("want ErrCompacted, got %v", err)
	}
	// Restarting at the retained floor works.
	c2, err := NewCursor(dir, segs[0].FirstAge)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	age, _, ok, err := c2.Next(w.Durable())
	if err != nil || !ok || age != segs[0].FirstAge {
		t.Fatalf("restart at floor: age=%d ok=%v err=%v", age, ok, err)
	}
}

func TestTapFiresInFrontierOrder(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SyncEveryN: 4})
	if err != nil {
		t.Fatal(err)
	}
	var frontiers []uint64
	ch := make(chan uint64, 64)
	w.Tap(func(d uint64) { ch <- d })
	for age := uint64(0); age < 32; age++ {
		if err := w.Append(age, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	close(ch)
	for d := range ch {
		frontiers = append(frontiers, d)
	}
	if len(frontiers) == 0 {
		t.Fatal("tap never fired")
	}
	for i := 1; i < len(frontiers); i++ {
		if frontiers[i] < frontiers[i-1] {
			t.Fatalf("tap frontiers regressed: %v", frontiers)
		}
	}
	if last := frontiers[len(frontiers)-1]; last != 32 {
		t.Fatalf("final tap frontier %d, want 32", last)
	}
}

// TestAppendFramesShipsTheSegmentBytes: the raw range a cursor returns
// is byte for byte what the segment files hold, across segment rolls,
// cut at the limit and at the byte budget; ParseFrame walks it back
// into the records Next returns.
func TestAppendFramesShipsTheSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 40
	fill(t, w, 0, n)
	segs, err := Segments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want a log of several segments, got %d (err %v)", len(segs), err)
	}
	var disk []byte
	for _, s := range segs {
		b, err := os.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		disk = append(disk, b...)
	}
	frame := int(FrameSize(make([]byte, 3)))

	// One call, no budget to speak of: the whole durable range, rolls
	// and all.
	cur, _ := NewCursor(dir, 0)
	defer cur.Close()
	raw, first, got, err := cur.AppendFrames([]byte("prefix"), w.Durable(), 1<<20)
	if err != nil || first != 0 || got != n {
		t.Fatalf("AppendFrames: first %d, n %d, err %v; want 0, %d", first, got, err, n)
	}
	if string(raw[:6]) != "prefix" || string(raw[6:]) != string(disk) {
		t.Fatalf("the range differs from the segment files (%d vs %d bytes)", len(raw)-6, len(disk))
	}
	if _, _, got, err := cur.AppendFrames(nil, w.Durable(), 1<<20); got != 0 || err != nil {
		t.Fatalf("caught-up cursor appended %d records (err %v)", got, err)
	}

	// From the middle, in budgeted pieces, never past the limit.
	const from, limit = 7, 31
	cur2, _ := NewCursor(dir, from)
	defer cur2.Close()
	var pieces []byte
	for next := uint64(from); ; {
		before := len(pieces)
		var first uint64
		var got int
		pieces, first, got, err = cur2.AppendFrames(pieces, limit, 3*frame-1)
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			if next != limit {
				t.Fatalf("cursor stopped at %d, want %d", next, limit)
			}
			break
		}
		if first != next || got > 3 || len(pieces)-before != got*frame {
			t.Fatalf("piece at %d: first %d, %d records, %d bytes", next, first, got, len(pieces)-before)
		}
		next += uint64(got)
	}
	if string(pieces) != string(disk[from*frame:limit*frame]) {
		t.Fatal("the budgeted pieces do not add up to the segment bytes")
	}

	// The consumer's walk yields exactly the records.
	check, _ := NewCursor(dir, from)
	defer check.Close()
	for b := pieces; len(b) > 0; {
		age, payload, rest, err := ParseFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		wantAge, wantPayload, ok, err := check.Next(limit)
		if err != nil || !ok || age != wantAge || string(payload) != string(wantPayload) {
			t.Fatalf("ParseFrame gave age %d %x, Next gave %d %x (ok %v, err %v)", age, payload, wantAge, wantPayload, ok, err)
		}
		b = rest
	}
}

// TestParseFrameRejects: every way a shipped frame can be wrong is the
// consumer's to catch — the cursor that produced the bytes checked
// none of it.
func TestParseFrameRejects(t *testing.T) {
	good := appendRecord(nil, 9, []byte("payload"))
	if age, payload, rest, err := ParseFrame(append(good, 0xEE)); err != nil || age != 9 || string(payload) != "payload" || len(rest) != 1 {
		t.Fatalf("good frame: age %d payload %q rest %d err %v", age, payload, len(rest), err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, _, _, err := ParseFrame(good[:cut]); err == nil {
			t.Fatalf("frame cut at %d of %d parsed", cut, len(good))
		}
	}
	for bit := 0; bit < 8*len(good); bit++ {
		bad := append([]byte(nil), good...)
		bad[bit/8] ^= 1 << (bit % 8)
		// Room behind the frame, so a flipped length bit is caught by
		// the checksum and not by running out of bytes.
		bad = append(bad, make([]byte, 256)...)
		if _, _, _, err := ParseFrame(bad); err == nil {
			t.Fatalf("frame with bit %d flipped parsed", bit)
		}
	}
}

// TestAppendFramesErrorsOnlyWhenEmpty: a cursor that meets a header
// that does not fit the chain after appending returns what it has; the
// call that can append nothing reports why. So does one whose records
// were compacted away.
func TestAppendFramesErrorsOnlyWhenEmpty(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fill(t, w, 0, 10)
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, err %v", segs, err)
	}
	// Record 6 claims to be record 60.
	f, err := os.OpenFile(segs[0].Path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{60}, 6*FrameSize(make([]byte, 3))+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cur, _ := NewCursor(dir, 0)
	defer cur.Close()
	raw, first, n, err := cur.AppendFrames(nil, w.Durable(), 1<<20)
	if err != nil || first != 0 || n != 6 {
		t.Fatalf("first call: first %d, n %d, err %v; want the 6 records before the damage and no error", first, n, err)
	}
	if raw2, _, n, err := cur.AppendFrames(raw, w.Durable(), 1<<20); err == nil || n != 0 || len(raw2) != len(raw) {
		t.Fatalf("second call: n %d, err %v, dst grew by %d; want an error and nothing appended", n, err, len(raw2)-len(raw))
	}

	// A limit beyond what the log holds is an error too, not a spin.
	whole := t.TempDir()
	w2, err := Create(whole, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	fill(t, w2, 0, 10)
	past, _ := NewCursor(whole, 7)
	defer past.Close()
	if _, _, n, err := past.AppendFrames(nil, 15, 1<<20); err != nil || n != 3 {
		t.Fatalf("limit past the log's end: n %d, err %v; want the 3 records there are", n, err)
	}
	if _, _, n, err := past.AppendFrames(nil, 15, 1<<20); err == nil || n != 0 {
		t.Fatalf("limit past the log's end, second call: n %d, err %v", n, err)
	}
	if _, _, ok, err := past.Next(15); err == nil || ok {
		t.Fatalf("Next past the log's end: ok %v, err %v", ok, err)
	}

	gone, _ := NewCursor(t.TempDir(), 3)
	if _, _, n, err := gone.AppendFrames(nil, 5, 1<<20); !errors.Is(err, ErrCompacted) || n != 0 {
		t.Fatalf("cursor on a log that does not hold its age: n %d, err %v", n, err)
	}
}
