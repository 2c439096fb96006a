package wal

import (
	"os"
	"testing"
	"time"
)

// gatedFS is the real filesystem with every Fdatasync of a segment
// held at a gate: a call announces itself on entered and returns once
// it is handed a token on release, so a test sees each sync group the
// writer admits and decides how long the device stays busy.
type gatedFS struct {
	FS
	entered chan struct{}
	release chan struct{}
}

func newGatedFS() *gatedFS {
	// Room for every admission a test could make: an fsync never
	// blocks on announcing itself.
	return &gatedFS{FS: OS, entered: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (g *gatedFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g}, nil
}

type gatedFile struct {
	File
	g *gatedFS
}

func (f gatedFile) Fdatasync() error {
	f.g.entered <- struct{}{}
	<-f.g.release
	return f.File.Fdatasync()
}

// admission waits for the writer's next Fdatasync to begin.
func (g *gatedFS) admission(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("no sync group admitted: %s", what)
	}
}

// quiet checks that no Fdatasync begins for a little while.
func (g *gatedFS) quiet(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.entered:
		t.Fatalf("a sync group was admitted: %s", what)
	case <-time.After(30 * time.Millisecond):
	}
}

func waitDurable(t *testing.T, w *Writer, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); w.Durable() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("durable frontier %d, want %d", w.Durable(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// adaptiveOn opens an adaptive writer on fs whose only clocks are the
// ones under test: the interval is an hour, so neither the idle flush
// nor an interval tick ever admits anything.
func adaptiveOn(t *testing.T, fs FS) *Writer {
	t.Helper()
	w, err := Create(t.TempDir(), 0, Options{Adaptive: true, SyncInterval: time.Hour, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func closeGated(t *testing.T, w *Writer, g *gatedFS) {
	t.Helper()
	for i := 0; i < cap(g.release); i++ {
		g.release <- struct{}{} // whatever Close still syncs goes straight through
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupSizedToBurst: appends hinted "more" on an idle device are
// held, and the one that says "no more" admits the whole burst as one
// sync group.
func TestGroupSizedToBurst(t *testing.T) {
	g := newGatedFS()
	w := adaptiveOn(t, g)
	defer closeGated(t, w, g)
	w.syncEst.Store(int64(time.Hour)) // the burst, not the clock, closes the group

	const burst = 10
	for age := uint64(0); age < burst-1; age++ {
		if err := w.AppendMore(age, payloadFor(age), true); err != nil {
			t.Fatal(err)
		}
	}
	g.quiet(t, "every append so far said more is coming")
	if err := w.AppendMore(burst-1, payloadFor(burst-1), false); err != nil {
		t.Fatal(err)
	}
	g.admission(t, "the burst ended")
	g.release <- struct{}{}
	waitDurable(t, w, burst)
	if n := w.Fsyncs(); n != 1 {
		t.Fatalf("%d fsyncs for one burst, want 1", n)
	}
	g.quiet(t, "nothing was appended after the burst")
}

// TestGroupWaitsOneSyncTimeAtMost: "more" followed by silence is
// admitted by the writer's own estimate of one fsync — measured on the
// fsync before it — not by the idle flush, which here never comes.
func TestGroupWaitsOneSyncTimeAtMost(t *testing.T) {
	g := newGatedFS()
	w := adaptiveOn(t, g)
	defer closeGated(t, w, g)

	// No estimate yet: the first record is synced at once, hint or no
	// hint, and its fsync is what the estimate is made from.
	if err := w.AppendMore(0, payloadFor(0), true); err != nil {
		t.Fatal(err)
	}
	g.admission(t, "the writer has not timed an fsync yet")
	time.Sleep(2 * time.Millisecond)
	g.release <- struct{}{}
	waitDurable(t, w, 1)
	if est := time.Duration(w.syncEst.Load()); est < 2*time.Millisecond || est > 5*time.Second {
		t.Fatalf("fsync estimate %v after one fsync held for 2ms", est)
	}

	if err := w.AppendMore(1, payloadFor(1), true); err != nil {
		t.Fatal(err)
	}
	g.admission(t, "more was promised and never came")
	g.release <- struct{}{}
	waitDurable(t, w, 2)
}

// TestUnhintedAppendAdmission pins plain Append's adaptive rule, which
// the hint must leave alone: at once on an idle device however long an
// fsync is thought to take, and while the device is busy the group
// grows until the slot frees.
func TestUnhintedAppendAdmission(t *testing.T) {
	g := newGatedFS()
	w := adaptiveOn(t, g)
	defer closeGated(t, w, g)
	w.syncEst.Store(int64(time.Hour))

	if err := w.Append(0, payloadFor(0)); err != nil {
		t.Fatal(err)
	}
	g.admission(t, "an un-hinted append found the device idle")
	for age := uint64(1); age <= 3; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
	}
	g.quiet(t, "the device is busy and the group far below AdaptiveBytes")
	g.release <- struct{}{}
	g.admission(t, "the sync slot freed with records pending")
	g.release <- struct{}{}
	waitDurable(t, w, 4)
	if n := w.Fsyncs(); n != 2 {
		t.Fatalf("%d fsyncs, want 2: the first record alone, then the three that rode behind it", n)
	}
}

// TestHintedGroupStillCapsAtAdaptiveBytes: a burst that never ends is
// cut at the byte target.
func TestHintedGroupStillCapsAtAdaptiveBytes(t *testing.T) {
	g := newGatedFS()
	w, err := Create(t.TempDir(), 0, Options{Adaptive: true, AdaptiveBytes: 4 << 10, SyncInterval: time.Hour, FS: g})
	if err != nil {
		t.Fatal(err)
	}
	defer closeGated(t, w, g)
	w.syncEst.Store(int64(time.Hour))

	for age := uint64(0); w.Bytes() < 4<<10; age++ {
		g.quiet(t, "the group is below AdaptiveBytes")
		if err := w.AppendMore(age, make([]byte, 1<<10), true); err != nil {
			t.Fatal(err)
		}
	}
	g.admission(t, "the group reached AdaptiveBytes")
	g.release <- struct{}{}
	waitDurable(t, w, w.Next())
}
