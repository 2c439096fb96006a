package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{SyncEveryN: -1},
		{SyncInterval: -time.Second},
		{AdaptiveBytes: -1},
		{MaxInFlightSyncs: -2},
		{SegmentBytes: -64},
		{Adaptive: true, SyncEveryN: 8},
		{Retry: RetryPolicy{Max: -1}},
		{Retry: RetryPolicy{Backoff: -time.Millisecond}},
		{Retry: RetryPolicy{MaxBackoff: -time.Millisecond}},
		{OnFail: FailPolicy(7)},
	}
	for i, o := range cases {
		if _, err := Create(t.TempDir(), 0, o); err == nil {
			t.Errorf("case %d: Create accepted invalid options %+v", i, o)
		}
	}
	// The same validation must guard the recovery path.
	dir := t.TempDir()
	writeLog(t, dir, 0, 3, Options{})
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Writer(Options{SyncEveryN: -5}); err == nil {
		t.Fatal("Recovery.Writer accepted negative SyncEveryN")
	}
}

func TestPolicyStrings(t *testing.T) {
	cases := []struct {
		o    Options
		want string
	}{
		{Options{}, "none"},
		{Options{SyncEveryN: 64}, "every=64"},
		{Options{SyncInterval: 5 * time.Millisecond}, "interval=5ms"},
		{Options{SyncEveryN: 8, SyncInterval: time.Second}, "every=8+interval=1s"},
		{Options{Adaptive: true}, "adaptive(bytes=262144,depth=2)"},
		{Options{Adaptive: true, AdaptiveBytes: 1024, MaxInFlightSyncs: 4},
			"adaptive(bytes=1024,depth=4)"},
		{Options{Adaptive: true, SyncInterval: 2 * time.Millisecond},
			"adaptive(bytes=262144,depth=2)+interval=2ms"},
	}
	for _, c := range cases {
		if got := c.o.withDefaults().policy(); got != c.want {
			t.Errorf("policy(%+v) = %q, want %q", c.o, got, c.want)
		}
	}
}

// ckptState builds a deterministic fake application snapshot for a
// frontier age.
func ckptState(age uint64) []byte {
	s := make([]byte, 64)
	for i := range s {
		s[i] = byte(age*31 + uint64(i))
	}
	return s
}

// writeCheckpointedLog writes n records starting at 0 and commits a
// checkpoint at ckptAge, returning the directory.
func writeCheckpointedLog(t *testing.T, n, ckptAge uint64, opts Options) string {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
		if age+1 == ckptAge {
			if err := w.Checkpoint(ckptAge, ckptState(ckptAge)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCheckpointRoundTrip(t *testing.T) {
	const n, ck = 100, 60
	dir := writeCheckpointedLog(t, n, ck, Options{})
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.CheckpointAge() != ck {
		t.Fatalf("checkpoint: has=%v age=%d, want age %d", r.HasCheckpoint(), r.CheckpointAge(), ck)
	}
	if !bytes.Equal(r.CheckpointState(), ckptState(ck)) {
		t.Fatal("checkpoint state mismatch")
	}
	if r.First() != ck || r.Next() != n || r.Count() != n-ck {
		t.Fatalf("first=%d next=%d count=%d, want %d %d %d", r.First(), r.Next(), r.Count(), ck, n, n-ck)
	}
	skipped, skippedB := r.Skipped()
	if skipped != ck || skippedB == 0 {
		t.Fatalf("skipped=%d (%d bytes), want %d records", skipped, skippedB, ck)
	}
	for i, rec := range replayed(t, r) {
		want := uint64(ck + i)
		if rec.Age != want || !bytes.Equal(rec.Payload, payloadFor(want)) {
			t.Fatalf("suffix record %d: age %d", i, rec.Age)
		}
	}
	// The reopened writer continues at the frontier.
	w, err := r.Writer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Next() != n || w.CheckpointAge() != ck {
		t.Fatalf("reopened next=%d ckpt=%d", w.Next(), w.CheckpointAge())
	}
	if err := w.Append(n, payloadFor(n)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAtFrontier(t *testing.T) {
	// Checkpoint exactly at Next: nothing to replay, but the log chain
	// stays intact (it still backs the fallback checkpoint).
	const n = 40
	dir := writeCheckpointedLog(t, n, n, Options{})
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.First() != n || r.Next() != n || r.Count() != 0 {
		t.Fatalf("has=%v first=%d next=%d count=%d", r.HasCheckpoint(), r.First(), r.Next(), r.Count())
	}
	if r.Truncated() {
		t.Fatal("clean checkpoint-at-frontier reported truncated")
	}
	w, err := r.Writer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(n, payloadFor(n)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Next() != n+1 || r2.Count() != 1 {
		t.Fatalf("after continue: next=%d count=%d", r2.Next(), r2.Count())
	}
}

func TestCheckpointBeyondFrontierRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(5, []byte("s")); err == nil {
		t.Fatal("checkpoint beyond the append frontier accepted")
	}
}

func TestCheckpointRetentionAndTruncation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	ckpts := []uint64{80, 160, 240}
	ci := 0
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
		if ci < len(ckpts) && age+1 == ckpts[ci] {
			if err := w.Checkpoint(ckpts[ci], ckptState(ckpts[ci])); err != nil {
				t.Fatal(err)
			}
			ci++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the two newest checkpoints survive.
	ages, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ages) != 2 || ages[0] != 160 || ages[1] != 240 {
		t.Fatalf("retained checkpoints %v, want [160 240]", ages)
	}
	// Segments wholly below the older kept checkpoint are gone, and the
	// surviving chain still covers [<=160, 300) so the fallback
	// checkpoint at 160 remains replayable.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	if segs[0].age > 160 {
		t.Fatalf("truncation cut into the fallback suffix: first segment at %d", segs[0].age)
	}
	if next := segs[1].age; len(segs) > 1 && next <= 160 {
		// segs[0] must be the newest segment wholly covering 160.
		t.Fatalf("segment below the retention floor survived: %d then %d", segs[0].age, next)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.CheckpointAge() != 240 || r.Next() != n {
		t.Fatalf("has=%v age=%d next=%d", r.HasCheckpoint(), r.CheckpointAge(), r.Next())
	}
	if r.Count() != n-240 {
		t.Fatalf("suffix count %d, want %d", r.Count(), n-240)
	}
}

func TestTornManifestFallsBackToCheckpointFile(t *testing.T) {
	const n, ck = 50, 30
	dir := writeCheckpointedLog(t, n, ck, Options{})
	// Corrupt the manifest: the .ckpt file itself still verifies, so
	// recovery must still find the checkpoint.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.CheckpointAge() != ck {
		t.Fatalf("torn manifest: has=%v age=%d, want %d", r.HasCheckpoint(), r.CheckpointAge(), ck)
	}
	if !bytes.Equal(r.CheckpointState(), ckptState(ck)) {
		t.Fatal("state mismatch after manifest loss")
	}
}

func TestTornCheckpointFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
		if age+1 == 40 || age+1 == 80 {
			if err := w.Checkpoint(age+1, ckptState(age+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the newest checkpoint mid-file: recovery falls back to 40.
	p80 := checkpointPath(dir, 80)
	data, err := os.ReadFile(p80)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p80, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.CheckpointAge() != 40 {
		t.Fatalf("fallback: has=%v age=%d, want 40", r.HasCheckpoint(), r.CheckpointAge())
	}
	if !bytes.Equal(r.CheckpointState(), ckptState(40)) {
		t.Fatal("fallback state mismatch")
	}
	if r.First() != 40 || r.Next() != n || r.Count() != n-40 {
		t.Fatalf("first=%d next=%d count=%d", r.First(), r.Next(), r.Count())
	}

	// Tear both: full replay from the log alone.
	if err := os.WriteFile(checkpointPath(dir, 40), []byte("xx"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.HasCheckpoint() {
		t.Fatal("torn checkpoints still reported as valid")
	}
	checkPrefix(t, r2, 0, n)
}

func TestCheckpointNewerThanTruncatedTail(t *testing.T) {
	const n, ck = 100, 80
	dir := writeCheckpointedLog(t, n, ck, Options{SegmentBytes: 512})
	// Simulate losing the log tail after the checkpoint committed:
	// keep only the first surviving segment's first record, so the
	// chain ends strictly below the checkpoint age.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	for _, s := range segs[1:] {
		if err := os.Remove(s.path); err != nil {
			t.Fatal(err)
		}
	}
	if segs[0].age+1 >= ck {
		t.Fatalf("layout: first surviving segment at %d, cannot end below checkpoint %d", segs[0].age, uint64(ck))
	}
	if err := os.Truncate(segs[0].path, recordSize(payloadFor(segs[0].age))); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.CheckpointAge() != ck {
		t.Fatalf("has=%v age=%d", r.HasCheckpoint(), r.CheckpointAge())
	}
	// Every surviving record is already folded into the checkpoint:
	// recovery restarts the log at the checkpoint age.
	if r.First() != ck || r.Next() != ck || r.Count() != 0 {
		t.Fatalf("first=%d next=%d count=%d, want %d %d 0", r.First(), r.Next(), r.Count(), uint64(ck), uint64(ck))
	}
	if !r.Truncated() {
		t.Fatal("lost tail not reported as truncation")
	}
	left, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d redundant segments survived", len(left))
	}
	// The reopened writer appends at the checkpoint age and the log
	// recovers whole afterwards.
	w, err := r.Writer(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Next() != ck {
		t.Fatalf("reopened next=%d, want %d", w.Next(), ck)
	}
	if err := w.Append(ck, payloadFor(ck)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.First() != ck || r2.Next() != ck+1 || r2.Count() != 1 {
		t.Fatalf("after continue: first=%d next=%d count=%d", r2.First(), r2.Next(), r2.Count())
	}
}

func TestCheckpointGapBelowSegments(t *testing.T) {
	// Checkpoint older than the first surviving segment (the operator
	// deleted early segments by hand, or truncation raced a crash):
	// the suffix cannot attach to the checkpoint, so only the
	// checkpoint state stands.
	const n, ck = 100, 20
	dir := writeCheckpointedLog(t, n, ck, Options{SegmentBytes: 512})
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several segments (err=%v n=%d)", err, len(segs))
	}
	// Remove the earliest segments so the first surviving one starts
	// above the checkpoint age.
	for _, s := range segs {
		if s.age <= ck+10 {
			if err := os.Remove(s.path); err != nil {
				t.Fatal(err)
			}
		}
	}
	left, _ := listSegments(dir)
	if len(left) == 0 || left[0].age <= ck {
		t.Skipf("segment layout did not produce a gap (first %v)", left)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.First() != ck || r.Next() != ck || r.Count() != 0 {
		t.Fatalf("has=%v first=%d next=%d count=%d, want state-only at %d",
			r.HasCheckpoint(), r.First(), r.Next(), r.Count(), ck)
	}
	if !r.Truncated() {
		t.Fatal("gap not reported as truncation")
	}
}

func TestAdaptivePolicyMakesProgress(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{Adaptive: true, AdaptiveBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.Durable() < n {
		if time.Now().After(deadline) {
			t.Fatalf("adaptive syncer stalled at durable=%d", w.Durable())
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 0, n)
}

func TestPipelinedSyncOverlap(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, 0, Options{SyncEveryN: 4, MaxInFlightSyncs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := w.Sync(); err != nil {
						return
					}
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	age := uint64(0)
	for w.SyncDepthMax() < 2 && time.Now().Before(deadline) {
		if err := w.Append(age, payloadFor(age)); err != nil {
			t.Fatal(err)
		}
		age++
	}
	close(stop)
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.SyncDepthMax() < 2 {
		t.Fatalf("no sync overlap observed (depth max %d)", w.SyncDepthMax())
	}
	if w.OverlappedSyncs() == 0 {
		t.Fatal("OverlappedSyncs = 0 despite depth > 1")
	}
	// Whatever the overlap did, the recovered log must be the exact
	// contiguous prefix.
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, r, 0, age)
}

// FuzzTornCheckpoint cuts the newest checkpoint file at arbitrary
// offsets: recovery must either load it whole or fall back to full
// replay — never error, never lose log records.
func FuzzTornCheckpoint(f *testing.F) {
	const n, ck = 30, 20
	src := f.TempDir()
	w, err := Create(src, 0, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, payloadFor(age)); err != nil {
			f.Fatal(err)
		}
		if age+1 == ck {
			if err := w.Checkpoint(ck, ckptState(ck)); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	ckData, err := os.ReadFile(checkpointPath(src, ck))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0))
	f.Add(uint16(len(ckData) / 2))
	f.Add(uint16(len(ckData)))
	f.Fuzz(func(t *testing.T, cut16 uint16) {
		cut := int(cut16) % (len(ckData) + 1)
		dir := copyDir(t, src)
		if err := os.WriteFile(checkpointPath(dir, ck), ckData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if cut == len(ckData) {
			if !r.HasCheckpoint() || r.CheckpointAge() != ck {
				t.Fatalf("intact checkpoint not used (cut=%d)", cut)
			}
			if r.First() != ck || r.Next() != n || r.Count() != n-ck {
				t.Fatalf("suffix wrong: first=%d next=%d count=%d", r.First(), r.Next(), r.Count())
			}
		} else {
			if r.HasCheckpoint() {
				t.Fatalf("torn checkpoint (cut=%d) reported valid", cut)
			}
			checkPrefix(t, r, 0, n)
		}
	})
}
