package wal

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// copyDir clones a log directory so each truncation experiment works
// on its own copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTornTailEveryOffset is the torn-tail fuzz: a log is cut at every
// byte offset inside its final record — simulating a crash at any
// point of the write — and recovery must always yield exactly the
// prefix without that record, still replayable, still appendable.
func TestTornTailEveryOffset(t *testing.T) {
	const n = 12
	src := t.TempDir()
	writeLog(t, src, 0, n, Options{})
	segs, err := listSegments(src)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want a single segment (err=%v, n=%d)", err, len(segs))
	}
	full, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := recordSize(payloadFor(n - 1))
	lastStart := full.Size() - lastLen

	for cut := lastStart; cut < full.Size(); cut++ {
		dir := copyDir(t, src)
		seg := filepath.Join(dir, filepath.Base(segs[0].path))
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		// A cut exactly at the record boundary leaves a clean shorter
		// log; any cut inside the record must be detected as torn.
		if cut > lastStart && !r.Truncated() {
			t.Fatalf("cut=%d: truncation not detected", cut)
		}
		checkPrefix(t, r, 0, n-1)
		// The truncated log must accept the record again and recover
		// whole afterwards.
		w, err := r.Writer(Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if err := w.Append(n-1, payloadFor(n-1)); err != nil {
			t.Fatalf("cut=%d: re-append: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		r2, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut=%d: re-recover: %v", cut, err)
		}
		checkPrefix(t, r2, 0, n)
	}
}

// TestTornTailBitFlips corrupts single bytes of the final record in
// place (a torn sector rather than a short write) and asserts the
// torn-tail rule still cuts exactly there.
func TestTornTailBitFlips(t *testing.T) {
	const n = 10
	src := t.TempDir()
	writeLog(t, src, 0, n, Options{})
	segs, _ := listSegments(src)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := recordSize(payloadFor(n - 1))
	lastStart := int64(len(data)) - lastLen

	for off := lastStart; off < int64(len(data)); off++ {
		dir := copyDir(t, src)
		seg := filepath.Join(dir, filepath.Base(segs[0].path))
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if err := os.WriteFile(seg, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(dir)
		if err != nil {
			t.Fatalf("off=%d: %v", off, err)
		}
		if !r.Truncated() {
			t.Fatalf("off=%d: corruption not detected", off)
		}
		checkPrefix(t, r, 0, n-1)
	}
}

// TestTornTailAcrossSegments cuts inside the final record of a
// multi-segment log: earlier segments must survive untouched.
func TestTornTailAcrossSegments(t *testing.T) {
	const n = 60
	src := t.TempDir()
	writeLog(t, src, 0, n, Options{SegmentBytes: 300})
	segs, err := listSegments(src)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several segments (err=%v, n=%d)", err, len(segs))
	}
	last := segs[len(segs)-1]
	st, err := os.Stat(last.path)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := recordSize(payloadFor(n - 1))
	for cut := st.Size() - lastLen; cut < st.Size(); cut++ {
		dir := copyDir(t, src)
		seg := filepath.Join(dir, filepath.Base(last.path))
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		checkPrefix(t, r, 0, n-1)
	}
}

// FuzzTornTail lets the fuzzer pick arbitrary cut points across the
// whole (single-segment) log — not just the final record — and checks
// the invariant that recovery always yields some exact prefix of the
// original records.
func FuzzTornTail(f *testing.F) {
	const n = 16
	src := f.TempDir()
	w, err := Create(src, 0, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var sizes []int64
	total := int64(0)
	for age := uint64(0); age < n; age++ {
		p := payloadFor(age)
		if err := w.Append(age, p); err != nil {
			f.Fatal(err)
		}
		total += recordSize(p)
		sizes = append(sizes, total)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	segs, _ := listSegments(src)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0))
	f.Add(uint16(len(data) / 2))
	f.Add(uint16(len(data) - 1))
	f.Fuzz(func(t *testing.T, cut16 uint16) {
		cut := int64(cut16) % int64(len(data)+1)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0].path)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The survivors must be exactly the records wholly below the
		// cut: count = #{i : sizes[i] <= cut}.
		want := uint64(0)
		for _, s := range sizes {
			if s <= cut {
				want++
			}
		}
		checkPrefix(t, r, 0, want)
	})
}

// TestTornTailZeroPadded is the torn-tail fuzz over a pre-zeroed tail:
// the live segment runs on in the writer's zero padding, so a crash
// leaves zeros behind whatever part of the log reached the disk. Every
// cut offset followed by zeros must recover the prefix the bare cut
// does, and count as torn exactly when the bare cut does — when it
// fell inside a record: zeros after the last whole record are the
// log's clean end. The one exception proves the rule: a record whose
// missing bytes are all zeros (some payloads end in zero bytes) is
// whole on the padded disk, byte for byte, and recovers untorn. The
// recovered log then takes the missing records and closes to the very
// bytes of the unbroken one.
func TestTornTailZeroPadded(t *testing.T) {
	const n = 12
	src := t.TempDir()
	writeLog(t, src, 0, n, Options{})
	segs, _ := listSegments(src)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int64{0} // ends[i]: where record i-1 ends
	for age := uint64(0); age < n; age++ {
		ends = append(ends, ends[age]+recordSize(payloadFor(age)))
	}
	name := filepath.Base(segs[0].path)
	recoverCut := func(cut int64, pad int) (*Recovery, string) {
		dir := t.TempDir()
		b := append(append([]byte(nil), data[:cut]...), make([]byte, pad)...)
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut=%d pad=%d: %v", cut, pad, err)
		}
		return r, dir
	}
	var completed int
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		whole := uint64(0) // records wholly below the cut
		for whole < n && ends[whole+1] <= cut {
			whole++
		}
		torn := cut != ends[whole]
		bare, _ := recoverCut(cut, 0)
		checkPrefix(t, bare, 0, whole)
		if bare.Truncated() != torn {
			t.Fatalf("cut=%d: bare cut truncated %v, want %v", cut, bare.Truncated(), torn)
		}
		padded, dir := recoverCut(cut, 4096)
		if torn && allZeroBytes(data[cut:ends[whole+1]]) {
			whole, torn = whole+1, false
			completed++
		}
		checkPrefix(t, padded, 0, whole)
		if padded.Truncated() != torn {
			t.Fatalf("cut=%d: zero-padded cut truncated %v, want %v", cut, padded.Truncated(), torn)
		}
		w, err := padded.Writer(Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		for age := whole; age < n; age++ {
			if err := w.Append(age, payloadFor(age)); err != nil {
				t.Fatalf("cut=%d: append %d: %v", cut, age, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != string(data) {
			t.Fatalf("cut=%d: the reopened log closed to %d bytes (err %v), the unbroken one has %d", cut, len(got), err, len(data))
		}
	}
	if completed == 0 {
		t.Fatal("no cut was made whole by the padding: the exception went untested")
	}
}

// TestZeroHoleInsideTheLog: zeros count as the log's end only in its
// tail segment, and only when nothing but zeros follows. Padding left
// in a finished segment, or a zeroed record with records after it, is
// damage: recovery cuts there and drops every later segment.
func TestZeroHoleInsideTheLog(t *testing.T) {
	const n = 60
	src := t.TempDir()
	writeLog(t, src, 0, n, Options{SegmentBytes: 300})
	segs, err := listSegments(src)
	if err != nil || len(segs) < 4 {
		t.Fatalf("want several segments (err=%v, n=%d)", err, len(segs))
	}
	frames := func(seg segment) int64 {
		var size int64
		for age := seg.age; age < n && (seg == segs[len(segs)-1] || age < segs[slices.Index(segs, seg)+1].age); age++ {
			size += recordSize(payloadFor(age))
		}
		return size
	}
	for _, tc := range []struct {
		name string
		seg  int    // which segment to damage
		next uint64 // the age recovery must end at
		hurt func(b []byte) []byte
	}{
		{"padding left in a finished segment", 1, segs[2].age, func(b []byte) []byte { return append(b, make([]byte, 4096)...) }},
		{"a zeroed record inside a finished segment", 1, segs[1].age + 1, func(b []byte) []byte {
			at := recordSize(payloadFor(segs[1].age))
			clear(b[at : at+recordSize(payloadFor(segs[1].age+1))])
			return b
		}},
		{"a zeroed record with records after it in the tail", len(segs) - 1, segs[len(segs)-1].age, func(b []byte) []byte {
			clear(b[:recordSize(payloadFor(segs[len(segs)-1].age))])
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyDir(t, src)
			seg := segs[tc.seg]
			path := filepath.Join(dir, filepath.Base(seg.path))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(b)) != frames(seg) {
				t.Fatalf("segment %016x holds %d bytes, its records %d", seg.age, len(b), frames(seg))
			}
			if err := os.WriteFile(path, tc.hurt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Truncated() || r.Next() != tc.next {
				t.Fatalf("recovered next %d, truncated %v; want a cut at %d", r.Next(), r.Truncated(), tc.next)
			}
			left, err := listSegments(dir)
			if err != nil || left[len(left)-1].age != seg.age {
				t.Fatalf("segments after the cut survived: %v (err %v)", left, err)
			}
			checkPrefix(t, r, 0, tc.next)
		})
	}
}

// TestReopenPaddedTailPastSegmentBytes: a tail left with zero padding
// is reopened in place even when it is already past the reopening
// writer's SegmentBytes, so the padding is cut by the roll that
// follows. Starting a fresh segment beside it instead would leave
// padding inside the log, which the next recovery must treat as
// damage — losing every record after it.
func TestReopenPaddedTailPastSegmentBytes(t *testing.T) {
	const n = 40
	src := t.TempDir()
	writeLog(t, src, 0, n, Options{})
	segs, _ := listSegments(src)
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash of a live writer: the records, then its zero padding.
	if err := os.WriteFile(segs[0].path, append(data, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(src)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 0, n)
	w, err := r.Writer(Options{SegmentBytes: int64(len(data)) / 2})
	if err != nil {
		t.Fatal(err)
	}
	for age := uint64(n); age < n+10; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(src)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Truncated() {
		t.Fatal("the reopened log recovered torn")
	}
	checkPrefix(t, r2, 0, n+10)
}
