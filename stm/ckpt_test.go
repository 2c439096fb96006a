package stm_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/wal"
)

// varsSnapshotter snapshots/restores a flat account array — the test
// workloads' whole state.
func varsSnapshotter(accounts []stm.Var) stm.Snapshotter {
	return stm.SnapshotterFuncs{
		SnapshotFunc: func() ([]byte, error) { return stm.SnapshotVars(accounts), nil },
		RestoreFunc:  func(data []byte) error { return stm.RestoreVars(accounts, data) },
	}
}

// modelTo folds the deterministic transferFor schedule over plain
// integers for ages [0, next) — the ground truth for single-producer
// runs (where age == submission index), valid even when the log's
// prefix has been truncated away by a checkpoint.
func modelTo(next uint64) []uint64 {
	balances := make([]uint64, durableAccounts)
	for i := range balances {
		balances[i] = 1000
	}
	for a := uint64(0); a < next; a++ {
		tr := transferFor(a)
		amt := a%5 + 1
		if balances[tr.from] >= amt && tr.from != tr.to {
			balances[tr.from] -= amt
			balances[tr.to] += amt
		}
	}
	return balances
}

// recoverCheckpointedState rebuilds state from a recovery: restore the
// checkpoint snapshot (if any), then replay only the surviving log
// suffix through a fresh pipeline of the given algorithm.
func recoverCheckpointedState(t *testing.T, alg stm.Algorithm, rec *wal.Recovery) []uint64 {
	t.Helper()
	accounts := newAccounts(durableAccounts, 1000)
	if rec.HasCheckpoint() {
		if err := stm.RestoreVars(accounts, rec.CheckpointState()); err != nil {
			t.Fatal(err)
		}
	}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: alg,
		Workers:   4,
		Codec:     tfCodec{accounts: accounts},
		FirstAge:  rec.First(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(func(age uint64, payload []byte) error {
		_, err := p.SubmitEncoded(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshot(accounts)
}

// runCheckpointedStream drives n single-producer transfers (age ==
// submission index) through a checkpointing durable pipeline. crashAt,
// if non-zero, snapshots the live log directory into snapDir after
// that many submissions — a crash at an arbitrary instant, possibly
// mid-checkpoint.
func runCheckpointedStream(t *testing.T, alg stm.Algorithm, dir, snapDir string, n, crashAt int, every uint64) (live []uint64, ckpts, ckptAge uint64) {
	t.Helper()
	accounts := newAccounts(durableAccounts, 1000)
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 4, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:       alg,
		Workers:         4,
		WAL:             w,
		Codec:           tfCodec{accounts: accounts},
		CheckpointEvery: every,
		Snapshotter:     varsSnapshotter(accounts),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
		if err != nil {
			t.Fatal(err)
		}
		if crashAt > 0 && i == crashAt {
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			copyDirLive(t, dir, snapDir)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, ckptAge = p.Checkpoints(), p.CheckpointAge()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshot(accounts), ckpts, ckptAge
}

// TestCheckpointedRecoveryEveryOrderedEngine: a checkpointed run's
// recovery loads the newest snapshot and replays only the log suffix
// above it, and the rebuilt state matches both the live run and the
// sequential model — for every ordered engine.
func TestCheckpointedRecoveryEveryOrderedEngine(t *testing.T) {
	for _, alg := range stm.OrderedAlgorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const n = 1200
			dir := t.TempDir()
			live, ckpts, ckptAge := runCheckpointedStream(t, alg, dir, "", n, 0, 256)
			if ckpts == 0 || ckptAge == 0 {
				t.Fatalf("run took %d checkpoints (newest at %d), want some", ckpts, ckptAge)
			}
			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.HasCheckpoint() {
				t.Fatal("recovery found no checkpoint")
			}
			if rec.CheckpointAge() != ckptAge {
				t.Fatalf("recovered checkpoint age %d, newest committed was %d", rec.CheckpointAge(), ckptAge)
			}
			if rec.First() != ckptAge {
				t.Fatalf("First() = %d, want the checkpoint age %d", rec.First(), ckptAge)
			}
			if rec.Next() != n {
				t.Fatalf("Next() = %d, want %d", rec.Next(), n)
			}
			if got, want := rec.Count(), int(uint64(n)-ckptAge); got != want {
				t.Fatalf("suffix replay is %d records, want %d (only ages above the checkpoint)", got, want)
			}
			model := modelTo(n)
			if !equalState(live, model) {
				t.Fatal("live state diverges from the sequential model")
			}
			if got := recoverCheckpointedState(t, alg, rec); !equalState(got, model) {
				t.Fatalf("%v checkpointed recovery diverges from the sequential model", alg)
			}
			if got := recoverCheckpointedState(t, stm.Sequential, rec); !equalState(got, model) {
				t.Fatal("Sequential checkpointed recovery diverges from the sequential model")
			}
		})
	}
}

// TestCheckpointCrashEveryOrderedEngine snapshots the log directory
// while appends, checkpoints, and truncations are all in flight — the
// copy can catch a torn tail, a torn checkpoint, or a half-pruned
// directory. Whatever survives must recover to the sequential state of
// exactly the recovered prefix.
func TestCheckpointCrashEveryOrderedEngine(t *testing.T) {
	for _, alg := range stm.OrderedAlgorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const n = 1500
			dir, snapDir := t.TempDir(), t.TempDir()
			runCheckpointedStream(t, alg, dir, snapDir, n, 2*n/3, 128)
			rec, err := wal.Recover(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			// The copy sees only bytes already flushed to the file, so
			// the frontier may trail the crash point — but never exceed
			// the run, and something must have landed.
			if rec.Next() == 0 || rec.Next() > n {
				t.Fatalf("recovered frontier %d outside (0, %d]", rec.Next(), n)
			}
			if rec.HasCheckpoint() && rec.First() != rec.CheckpointAge() {
				t.Fatalf("First() = %d with a checkpoint at %d", rec.First(), rec.CheckpointAge())
			}
			model := modelTo(rec.Next())
			if got := recoverCheckpointedState(t, alg, rec); !equalState(got, model) {
				t.Fatalf("%v crash recovery diverges from the sequential prefix state", alg)
			}
		})
	}
}

// TestTornManifestRecoveryMatchesState: a torn (or missing) manifest
// must not lose the checkpoint — recovery falls back to scanning the
// checkpoint files themselves, and the rebuilt state is unchanged.
func TestTornManifestRecoveryMatchesState(t *testing.T) {
	const n = 800
	dir := t.TempDir()
	live, _, _ := runCheckpointedStream(t, stm.OUL, dir, "", n, 0, 200)
	for _, tear := range []string{"truncate", "remove"} {
		tear := tear
		t.Run(tear, func(t *testing.T) {
			tornDir := t.TempDir()
			copyDirLive(t, dir, tornDir)
			man := filepath.Join(tornDir, "CHECKPOINT")
			if tear == "truncate" {
				if err := os.Truncate(man, 7); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := os.Remove(man); err != nil {
					t.Fatal(err)
				}
			}
			rec, err := wal.Recover(tornDir)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.HasCheckpoint() {
				t.Fatal("torn manifest lost the checkpoint (scan fallback failed)")
			}
			if rec.Next() != n {
				t.Fatalf("Next() = %d, want %d", rec.Next(), n)
			}
			if got := recoverCheckpointedState(t, stm.OUL, rec); !equalState(got, live) {
				t.Fatal("recovery after manifest tear diverges from live state")
			}
		})
	}
}

// TestCheckpointAboveMissingTail: every segment deleted, checkpoint
// intact — the pathological "checkpoint newer than the surviving tail"
// shape. Recovery must restart cleanly from the snapshot alone.
func TestCheckpointAboveMissingTail(t *testing.T) {
	const n = 800
	dir := t.TempDir()
	_, _, ckptAge := runCheckpointedStream(t, stm.OUL, dir, "", n, 0, 200)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.HasCheckpoint() || rec.First() != ckptAge || rec.Next() != ckptAge || rec.Count() != 0 {
		t.Fatalf("got first=%d next=%d count=%d ckpt=%v, want first=next=%d count=0",
			rec.First(), rec.Next(), rec.Count(), rec.HasCheckpoint(), ckptAge)
	}
	if got := recoverCheckpointedState(t, stm.OUL, rec); !equalState(got, modelTo(ckptAge)) {
		t.Fatal("snapshot-only recovery diverges from the model at the checkpoint age")
	}
}

// TestManualCheckpoint: explicit Checkpoint calls work without
// CheckpointEvery, repeat calls at an unchanged frontier are no-ops,
// and the resulting log restarts without replay.
func TestManualCheckpoint(t *testing.T) {
	dir := t.TempDir()
	accounts := newAccounts(durableAccounts, 1000)
	w, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:   stm.OUL,
		Workers:     2,
		WAL:         w,
		Codec:       tfCodec{accounts: accounts},
		Snapshotter: varsSnapshotter(accounts),
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(lo, hi int) {
		t.Helper()
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() { defer wg.Done(); tk.Wait() }()
		}
		wg.Wait()
	}
	submit(0, 100)
	age, err := p.Checkpoint()
	if err != nil || age != 100 {
		t.Fatalf("Checkpoint() = %d, %v; want 100, nil", age, err)
	}
	if again, err := p.Checkpoint(); err != nil || again != 100 {
		t.Fatalf("repeat Checkpoint() = %d, %v; want 100, nil (no-op)", again, err)
	}
	submit(100, 150)
	if age, err = p.Checkpoint(); err != nil || age != 150 {
		t.Fatalf("Checkpoint() = %d, %v; want 150, nil", age, err)
	}
	if p.Checkpoints() != 2 {
		t.Fatalf("Checkpoints() = %d, want 2", p.Checkpoints())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	live := snapshot(accounts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.HasCheckpoint() || rec.First() != 150 || rec.Count() != 0 {
		t.Fatalf("got first=%d count=%d ckpt=%v, want a replay-free restart at 150",
			rec.First(), rec.Count(), rec.HasCheckpoint())
	}
	if got := recoverCheckpointedState(t, stm.OUL, rec); !equalState(got, live) {
		t.Fatal("snapshot restore diverges from live state")
	}
}

// TestCheckpointConfigValidation: CheckpointEvery demands the full
// checkpoint contract up front.
func TestCheckpointConfigValidation(t *testing.T) {
	accounts := newAccounts(4, 0)
	snap := varsSnapshotter(accounts)
	w, err := wal.Create(t.TempDir(), 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cases := []struct {
		name string
		cfg  stm.Config
	}{
		{"no WAL", stm.Config{Algorithm: stm.OUL, CheckpointEvery: 10, Snapshotter: snap}},
		{"no snapshotter", stm.Config{Algorithm: stm.OUL, CheckpointEvery: 10, WAL: w, Codec: tfCodec{accounts: accounts}}},
		{"no sink", stm.Config{Algorithm: stm.OUL, CheckpointEvery: 10, WAL: &failingLog{}, Codec: tfCodec{accounts: accounts}, Snapshotter: snap}},
	}
	for _, tc := range cases {
		if _, err := stm.NewPipeline(tc.cfg); err == nil {
			t.Errorf("%s: NewPipeline accepted an incomplete checkpoint config", tc.name)
		}
	}
}

// TestReplayThroughCheckpointingPipeline: Replay streams the suffix
// from disk while the pipeline it feeds, attached to the reopened
// Writer, checkpoints every few ages and compacts the log below them.
// Compaction must never take a segment the replay still needs: the
// replay ends at the sequential-fold state, and so does a recovery of
// the compacted log.
func TestReplayThroughCheckpointingPipeline(t *testing.T) {
	const n, every = 3000, 100
	dir := t.TempDir()
	w, err := wal.Create(dir, 0, wal.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for age := uint64(0); age < n; age++ {
		if err := w.Append(age, transferFor(age).encode()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) < 10 || rec.Count() != n {
		t.Fatalf("%d segments (err %v), %d records; want a long multi-segment suffix", len(segs), err, rec.Count())
	}

	accounts := newAccounts(durableAccounts, 1000)
	w, err = rec.Writer(wal.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:       stm.OWB,
		Workers:         4,
		WAL:             w,
		Codec:           tfCodec{accounts: accounts},
		FirstAge:        rec.First(),
		CheckpointEvery: every,
		Snapshotter:     varsSnapshotter(accounts),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(func(age uint64, payload []byte) error {
		if age%every == 0 {
			// The automatic checkpoints trail the replay by far; one
			// taken here compacts right behind the cursor.
			if _, err := p.Checkpoint(); err != nil {
				return err
			}
		}
		_, err := p.SubmitEncoded(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Checkpoints() < 2 {
		t.Fatalf("the replay took %d checkpoints, want several", p.Checkpoints())
	}
	if segs, err := wal.Segments(dir); err != nil || len(segs) == 0 || segs[0].FirstAge == 0 {
		t.Fatalf("segments %v (err %v): the checkpoints compacted nothing", segs, err)
	}
	model := modelTo(n)
	if !equalState(snapshot(accounts), model) {
		t.Fatal("the replayed state diverges from the sequential fold")
	}
	rec, err = wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := recoverCheckpointedState(t, stm.OWB, rec); rec.Next() != n || !equalState(got, model) {
		t.Fatalf("recovery of the compacted log (next %d) diverges from the sequential fold", rec.Next())
	}
}
