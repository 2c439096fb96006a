package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// payloadFor builds a deterministic, variable-length payload for age.
func payloadFor(age uint64) []byte {
	n := int(age%61) + 1
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(age + uint64(i)*7)
	}
	return p
}

func writeLog(t *testing.T, dir string, first, n uint64, opts Options) {
	t.Helper()
	w, err := Create(dir, first, opts)
	if err != nil {
		t.Fatal(err)
	}
	for age := first; age < first+n; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayed collects the records Replay streams.
func replayed(t testing.TB, r *Recovery) []Record {
	t.Helper()
	var recs []Record
	if err := r.Replay(func(age uint64, payload []byte) error {
		recs = append(recs, Record{Age: age, Payload: payload})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func checkPrefix(t *testing.T, r *Recovery, first, n uint64) {
	t.Helper()
	if r.First() != first || r.Next() != first+n || uint64(r.Count()) != n {
		t.Fatalf("recovered first=%d next=%d count=%d; want first=%d next=%d count=%d",
			r.First(), r.Next(), r.Count(), first, first+n, n)
	}
	recs := replayed(t, r)
	if len(recs) != r.Count() {
		t.Fatalf("replay yielded %d records, Count %d", len(recs), r.Count())
	}
	for i, rec := range recs {
		want := first + uint64(i)
		if rec.Age != want {
			t.Fatalf("record %d has age %d, want %d", i, rec.Age, want)
		}
		if !bytes.Equal(rec.Payload, payloadFor(want)) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 0, 500, Options{})
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 0, 500)
	if r.Truncated() {
		t.Fatal("clean log reported truncated")
	}
}

func TestRoundTripNonZeroFirstAge(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 1000, 40, Options{})
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 1000, 40)
}

func TestEmptyLogKeepsFirstAge(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 77, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 77, 0)
}

func TestRecoverMissingDir(t *testing.T) {
	r, err := Recover(filepath.Join(t.TempDir(), "nothing-here"))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 0, 0)
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rolls.
	writeLog(t, dir, 0, 300, Options{SegmentBytes: 512})
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 10 {
		t.Fatalf("expected many segments, got %d", len(segs))
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 0, 300)
}

func TestReopenedWriterContinues(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 0, 100, Options{SegmentBytes: 1024})
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.Writer(Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if w.Next() != 100 {
		t.Fatalf("reopened Next = %d, want 100", w.Next())
	}
	for age := uint64(100); age < 200; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r2, 0, 200)
}

func TestIdempotentReplayAppends(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 0, 50, Options{})
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.Writer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Replaying recovered ages through the writer must be a no-op.
	if err := r.Replay(w.Append); err != nil {
		t.Fatal(err)
	}
	if w.Next() != 50 {
		t.Fatalf("Next moved to %d during replay, want 50", w.Next())
	}
	if err := w.Append(50, payloadFor(50)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r2, 0, 51)
}

func TestAppendGapRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, []byte("c")); err == nil {
		t.Fatal("age gap accepted")
	}
}

func TestCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 0, 3, Options{})
	if _, err := Create(dir, 0, Options{}); err == nil {
		t.Fatal("Create over an existing log succeeded")
	}
}

func TestDurabilityFrontierAndNotify(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SyncEveryN: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []uint64
	done := make(chan struct{}, 16)
	w.Notify(func(next uint64, err error) {
		if err != nil {
			t.Errorf("notify error: %v", err)
		}
		mu.Lock()
		seen = append(seen, next)
		mu.Unlock()
		select {
		case done <- struct{}{}:
		default:
		}
	})
	if got := w.Durable(); got != 0 {
		t.Fatalf("initial Durable = %d, want 0", got)
	}
	for age := uint64(0); age < 8; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for w.Durable() < 8 {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("group commit never reached 8 (durable=%d)", w.Durable())
		}
	}
	mu.Lock()
	frontiers := append([]uint64(nil), seen...)
	mu.Unlock()
	if len(frontiers) == 0 {
		t.Fatal("no notifications")
	}
	for i := 1; i < len(frontiers); i++ {
		if frontiers[i] < frontiers[i-1] {
			t.Fatalf("durability frontier went backwards: %v", frontiers)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.Durable() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("interval sync never fired (durable=%d)", w.Durable())
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNoneOnlySyncsExplicitly(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for age := uint64(0); age < 10; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Durable(); got != 0 {
		t.Fatalf("policy none advanced durability to %d without Sync", got)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := w.Durable(); got != 10 {
		t.Fatalf("Durable after Sync = %d, want 10", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedWriterRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, []byte("x")); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

func TestConcurrentAppendAndSync(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SyncEveryN: 8, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hammer explicit syncs against the group-commit syncer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := w.Sync(); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}
	}()
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Durable() != n {
		t.Fatalf("Durable after Close = %d, want %d", w.Durable(), n)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 0, n)
}

func TestReplayDriver(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 5, 20, Options{})
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ages []uint64
	if err := r.Replay(func(age uint64, payload []byte) error {
		if !bytes.Equal(payload, payloadFor(age)) {
			return fmt.Errorf("payload mismatch at %d", age)
		}
		ages = append(ages, age)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ages) != 20 || ages[0] != 5 || ages[19] != 24 {
		t.Fatalf("replayed ages %v", ages)
	}
}

func TestRecoverDropsSegmentsPastGap(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, 0, 200, Options{SegmentBytes: 512})
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 4 {
		t.Fatalf("want several segments (err=%v, n=%d)", err, len(segs))
	}
	// Lose a middle segment: everything from it on is unusable.
	lost := len(segs) / 2
	if err := os.Remove(segs[lost].path); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated() {
		t.Fatal("gap not reported as truncation")
	}
	if r.Next() != segs[lost].age {
		t.Fatalf("Next = %d, want %d (start of lost segment)", r.Next(), segs[lost].age)
	}
	checkPrefix(t, r, 0, segs[lost].age)
	left, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != lost {
		t.Fatalf("%d segments survived, want %d", len(left), lost)
	}
}
