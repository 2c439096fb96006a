package wal_test

// Fault-injection coverage for the durable path: every test drives a
// real Writer over internal/faultfs and asserts the failure-model
// contract — transient errors are retried away, terminal errors
// either kill (FailStop) or detach (Degrade) the log, and recovery
// after any of it yields exactly the durable prefix, never more than
// the writer acknowledged.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/orderedstm/ostm/internal/faultfs"
	"github.com/orderedstm/ostm/stm/wal"
)

func pay(age uint64) []byte {
	p := make([]byte, int(age%53)+1)
	for i := range p {
		p[i] = byte(age + uint64(i)*11)
	}
	return p
}

// appendN appends ages [0, n) and returns the first append error.
func appendN(w *wal.Writer, n uint64) error {
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, pay(age)); err != nil {
			return err
		}
	}
	return nil
}

func checkRecovered(t *testing.T, dir string, wantNextAtLeast uint64) *wal.Recovery {
	t.Helper()
	r, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := r.First()
	if err := r.Replay(func(age uint64, payload []byte) error {
		if age != want || !bytes.Equal(payload, pay(want)) {
			t.Fatalf("recovered record %d: age=%d, want contiguous age %d with matching payload", want-r.First(), age, want)
		}
		want++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if r.Next() < wantNextAtLeast {
		t.Fatalf("recovered next=%d, want at least %d (acknowledged-durable prefix lost)", r.Next(), wantNextAtLeast)
	}
	return r
}

func TestTransientWriteErrorRetried(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		faultfs.Plan{Op: faultfs.OpWrite, N: 1, Err: syscall.EIO, Count: 1},
	)
	w, err := wal.Create(dir, 0, wal.Options{
		FS:    fs,
		Retry: wal.RetryPolicy{Max: 3, Backoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(w, 100); err != nil {
		t.Fatalf("append through a transient write error: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Retries() == 0 || w.IOErrors() == 0 {
		t.Fatalf("retries=%d ioErrors=%d, want both > 0", w.Retries(), w.IOErrors())
	}
	if w.Durable() != 100 {
		t.Fatalf("durable=%d, want 100", w.Durable())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := checkRecovered(t, dir, 100)
	if r.Truncated() {
		t.Fatal("retried-away transient error left a torn log")
	}
}

func TestTransientShortWriteRetried(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		faultfs.Plan{Op: faultfs.OpWrite, N: 1, Err: syscall.EIO, Short: true, Count: 1},
	)
	w, err := wal.Create(dir, 0, wal.Options{
		FS:    fs,
		Retry: wal.RetryPolicy{Max: 2, Backoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(w, 50); err != nil {
		t.Fatalf("append through a transient short write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Injected() == 0 {
		t.Fatal("short-write plan never fired")
	}
	// The retry must have resumed exactly where the short write
	// stopped: all 50 records intact.
	r := checkRecovered(t, dir, 50)
	if r.Truncated() || r.Count() != 50 {
		t.Fatalf("truncated=%v count=%d, want intact 50-record log", r.Truncated(), r.Count())
	}
}

func TestPersistentSyncErrorFailStop(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		faultfs.Plan{Op: faultfs.OpSync, N: 1, Err: syscall.EIO, Count: -1},
	)
	w, err := wal.Create(dir, 0, wal.Options{
		FS:    fs,
		Retry: wal.RetryPolicy{Max: 1, Backoff: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var notified error
	w.Notify(func(next uint64, err error) {
		mu.Lock()
		if err != nil && notified == nil {
			notified = err
		}
		mu.Unlock()
	})
	if err := appendN(w, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync = %v, want EIO", err)
	}
	if w.Durable() != 0 {
		t.Fatalf("durable advanced to %d past a failed sync", w.Durable())
	}
	// The log is dead: appends and syncs keep failing with the cause.
	if err := w.Append(10, pay(10)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append after fail-stop = %v, want EIO", err)
	}
	mu.Lock()
	if !errors.Is(notified, syscall.EIO) {
		t.Fatalf("observer notified %v, want EIO", notified)
	}
	mu.Unlock()
	if w.Degraded() {
		t.Fatal("FailStop must not report degraded")
	}
	if err := w.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want EIO", err)
	}
	// Nothing was acknowledged durable, so any recovered prefix is
	// consistent; it must still parse cleanly.
	checkRecovered(t, dir, 0)
}

func TestPersistentSyncErrorDegrade(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		faultfs.Plan{Op: faultfs.OpSync, N: 2, Err: syscall.EIO, Count: -1},
	)
	w, err := wal.Create(dir, 0, wal.Options{
		FS:     fs,
		OnFail: wal.Degrade,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(w, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil { // first sync succeeds (plan fires at #2)
		t.Fatal(err)
	}
	if w.Durable() != 10 {
		t.Fatalf("durable=%d, want 10", w.Durable())
	}
	for age := uint64(10); age < 20; age++ {
		if err := w.Append(age, pay(age)); err != nil {
			if !errors.Is(err, wal.ErrDegraded) {
				t.Fatalf("Append during degrade = %v, want ErrDegraded", err)
			}
			break
		}
	}
	if err := w.Sync(); !errors.Is(err, wal.ErrDegraded) {
		t.Fatalf("Sync after degrade = %v, want ErrDegraded", err)
	}
	if !w.Degraded() {
		t.Fatal("Degraded() = false after a terminal sync failure under OnFail=Degrade")
	}
	if err := w.Close(); !errors.Is(err, wal.ErrDegraded) {
		t.Fatalf("Close = %v, want ErrDegraded", err)
	}
	// The acknowledged prefix — ages [0,10), durable before the fault
	// — must survive recovery byte for byte.
	checkRecovered(t, dir, 10)
}

func TestENOSPCDuringSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		// Open #1 is the initial segment; #2 is the roll.
		faultfs.Plan{Op: faultfs.OpOpen, N: 2, Err: syscall.ENOSPC, Count: -1},
	)
	w, err := wal.Create(dir, 0, wal.Options{
		FS:           fs,
		SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	var appended uint64
	var rollErr error
	for age := uint64(0); age < 200; age++ {
		if rollErr = w.Append(age, pay(age)); rollErr != nil {
			break
		}
		appended = age + 1
	}
	if !errors.Is(rollErr, syscall.ENOSPC) {
		t.Fatalf("append across a full-disk roll = %v, want ENOSPC", rollErr)
	}
	if err := w.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Sync after failed roll = %v, want ENOSPC", err)
	}
	w.Close()
	// Everything appended before the roll is in the first segment and
	// must recover; the failed roll lost nothing acknowledged.
	r := checkRecovered(t, dir, 0)
	if r.Next() != appended {
		t.Fatalf("recovered next=%d, want %d (records accepted before ENOSPC)", r.Next(), appended)
	}
}

func TestFailedCheckpointRenameKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		faultfs.Plan{Op: faultfs.OpRename, N: 1, Err: syscall.EIO, Count: -1, Path: "CHECKPOINT"},
	)
	w, err := wal.Create(dir, 0, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(w, 20); err != nil {
		t.Fatal(err)
	}
	// First checkpoint: snapshot file renames fine, manifest rename
	// fails — the checkpoint must not be committed.
	if err := w.Checkpoint(10, []byte("state@10")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Checkpoint with failing manifest rename = %v, want EIO", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := checkRecovered(t, dir, 20)
	// The manifest never committed, but the snapshot file itself is
	// valid on disk — recovery may legitimately use it (manifest is a
	// hint, not an authority). What it must never do is trip over the
	// orphan temp manifest.
	if r.HasCheckpoint() && !bytes.Equal(r.CheckpointState(), []byte("state@10")) {
		t.Fatalf("recovery picked a checkpoint with the wrong state %q", r.CheckpointState())
	}
	if r.Next() != 20 {
		t.Fatalf("recovered next=%d, want 20", r.Next())
	}
}

func TestFailedCheckpointFileRenameKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		faultfs.Plan{Op: faultfs.OpRename, N: 2, Err: syscall.EIO, Count: -1, Path: ".ckpt"},
	)
	w, err := wal.Create(dir, 0, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(w, 30); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(10, []byte("state@10")); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint's snapshot rename fails: the previous
	// checkpoint must remain committed and recovery must use it.
	if err := w.Checkpoint(20, []byte("state@20")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Checkpoint with failing snapshot rename = %v, want EIO", err)
	}
	if w.CheckpointAge() != 10 {
		t.Fatalf("CheckpointAge=%d after failed checkpoint, want 10", w.CheckpointAge())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.CheckpointAge() != 10 || !bytes.Equal(r.CheckpointState(), []byte("state@10")) {
		t.Fatalf("recovery: hasCkpt=%v age=%d state=%q, want the previous checkpoint (age 10)",
			r.HasCheckpoint(), r.CheckpointAge(), r.CheckpointState())
	}
	if r.Next() != 30 {
		t.Fatalf("recovered next=%d, want 30", r.Next())
	}
}

func TestRecoveryIgnoresOrphanTempFiles(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendN(w, 15); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(10, []byte("state@10")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Orphans a crashed/failed atomic write would leave behind.
	for _, name := range []string{"CHECKPOINT.tmp", fmt.Sprintf("%016x.ckpt.tmp", 14)} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasCheckpoint() || r.CheckpointAge() != 10 {
		t.Fatalf("hasCkpt=%v age=%d, want committed checkpoint at 10", r.HasCheckpoint(), r.CheckpointAge())
	}
	if r.Next() != 15 || r.Truncated() {
		t.Fatalf("next=%d truncated=%v, want 15/false — orphan temps must be invisible", r.Next(), r.Truncated())
	}
}

func TestExhaustedShortWriteLeavesRecoverableTornTail(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		faultfs.Plan{Op: faultfs.OpWrite, N: 3, Err: syscall.EIO, Short: true, Count: -1},
	)
	w, err := wal.Create(dir, 0, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var accepted uint64
	for age := uint64(0); age < 100; age++ {
		if err := w.Append(age, pay(age)); err != nil {
			break
		}
		accepted = age + 1
		if err := w.Sync(); err != nil {
			break
		}
	}
	w.Close()
	// The torn half-record the short write left must be cut; the
	// prefix below the last successful sync must survive.
	r := checkRecovered(t, dir, 0)
	if r.Next() > accepted {
		t.Fatalf("recovery claims %d records, writer only accepted %d", r.Next(), accepted)
	}
}

// TestFailedZeroFill: the writer keeps its live segment zero-filled a
// chunk ahead of the records, and that fill can fail like any write.
// Records of 64 KiB, one sync each, bring the third fill — the first
// past the segment's opening two chunks — at the sync of record 16.
// Transient failures, plain or short, are retried away. A terminal one
// latches the log under FailStop and detaches it under Degrade; either
// way every acknowledged record recovers and the log ends at a record
// boundary, never in a torn record.
func TestFailedZeroFill(t *testing.T) {
	big := func(age uint64) []byte { return bytes.Repeat([]byte{byte(age) | 1}, 64<<10) }
	for _, tc := range []struct {
		name   string
		plan   faultfs.Plan
		onFail wal.FailPolicy
		dies   bool
	}{
		{"transient", faultfs.Plan{Op: faultfs.OpZero, N: 3, Err: syscall.EIO, Count: 1}, wal.FailStop, false},
		{"transient-short", faultfs.Plan{Op: faultfs.OpZero, N: 3, Err: syscall.EIO, Short: true, Count: 1}, wal.FailStop, false},
		{"failstop", faultfs.Plan{Op: faultfs.OpZero, N: 3, Err: syscall.EIO, Count: -1}, wal.FailStop, true},
		{"failstop-short", faultfs.Plan{Op: faultfs.OpZero, N: 3, Err: syscall.EIO, Short: true, Count: -1}, wal.FailStop, true},
		{"degrade", faultfs.Plan{Op: faultfs.OpZero, N: 3, Err: syscall.EIO, Count: -1}, wal.Degrade, true},
		{"degrade-short", faultfs.Plan{Op: faultfs.OpZero, N: 3, Err: syscall.EIO, Short: true, Count: -1}, wal.Degrade, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := faultfs.New(nil, tc.plan)
			w, err := wal.Create(dir, 0, wal.Options{
				FS:     fs,
				OnFail: tc.onFail,
				Retry:  wal.RetryPolicy{Max: 1, Backoff: time.Microsecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 32
			var acked uint64
			var failed error
			for age := uint64(0); age < n && failed == nil; age++ {
				if failed = w.Append(age, big(age)); failed == nil {
					if failed = w.Sync(); failed == nil {
						acked = age + 1
					}
				}
			}
			if fs.Injected() == 0 {
				t.Fatal("the zero-fill plan never fired")
			}
			switch {
			case !tc.dies && failed != nil:
				t.Fatalf("a transient zero-fill failure was not retried away: %v", failed)
			case tc.dies && tc.onFail == wal.FailStop && !errors.Is(failed, syscall.EIO):
				t.Fatalf("terminal zero-fill failure under FailStop = %v, want EIO", failed)
			case tc.dies && tc.onFail == wal.Degrade && (!errors.Is(failed, wal.ErrDegraded) || !w.Degraded()):
				t.Fatalf("terminal zero-fill failure under Degrade = %v (degraded %v), want ErrDegraded", failed, w.Degraded())
			}
			if tc.dies {
				if acked < 10 || acked >= n {
					t.Fatalf("%d records acknowledged before the failure; the plan should strike mid-run", acked)
				}
				if err := w.Append(acked+1, big(acked+1)); err == nil {
					t.Fatal("the log took an append after a terminal failure")
				}
			}
			w.Close()
			r, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if r.Next() < acked || r.Truncated() {
				t.Fatalf("recovered next %d (truncated %v) after %d acknowledged", r.Next(), r.Truncated(), acked)
			}
			i := uint64(0)
			if err := r.Replay(func(age uint64, payload []byte) error {
				if age != i || !bytes.Equal(payload, big(age)) {
					t.Fatalf("recovered record %d: age %d, payload mismatch", i, age)
				}
				i++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
