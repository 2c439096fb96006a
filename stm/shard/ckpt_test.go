package shard_test

import (
	"testing"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

func shardSnapshotter(accounts []stm.Var) stm.Snapshotter {
	return stm.SnapshotterFuncs{
		SnapshotFunc: func() ([]byte, error) { return stm.SnapshotVars(accounts), nil },
		RestoreFunc:  func(data []byte) error { return stm.RestoreVars(accounts, data) },
	}
}

// foldPayloads folds a single-producer payload schedule (global age ==
// schedule index) over plain integers for ages [0, next) — valid even
// when the log prefix was truncated by a checkpoint.
func foldPayloads(payloads []xfer, next uint64) []uint64 {
	balances := make([]uint64, durAccounts)
	for i := range balances {
		balances[i] = 1000
	}
	for a := uint64(0); a < next; a++ {
		x := payloads[a]
		amt := a%5 + 1
		if balances[x.from] >= amt && x.from != x.to {
			balances[x.from] -= amt
			balances[x.to] += amt
		}
	}
	return balances
}

// replayCheckpointedSharded rebuilds state from a sharded recovery:
// split the checkpoint into watermarks + application snapshot, restore
// the Vars, and replay the surviving suffix through a fresh router
// seeded with the watermarks.
func replayCheckpointedSharded(t *testing.T, alg stm.Algorithm, shards int, rec *wal.Recovery) []uint64 {
	t.Helper()
	accounts := newDurAccounts()
	var locals []uint64
	if rec.HasCheckpoint() {
		ln, app, err := shard.DecodeCheckpoint(rec.CheckpointState())
		if err != nil {
			t.Fatal(err)
		}
		if len(ln) != shards {
			t.Fatalf("checkpoint froze %d shard watermarks, want %d", len(ln), shards)
		}
		locals = ln
		if err := stm.RestoreVars(accounts, app); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir() // scratch log for the replay instance
	w, err := wal.Create(dir, rec.First(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sp, err := shard.New(shard.Config{
		Shards:         shards,
		Pipeline:       stm.Config{Algorithm: alg, Workers: 2, FirstAge: rec.First()},
		WAL:            w,
		Codec:          xferCodec{accounts: accounts},
		LocalFirstAges: locals,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(func(age uint64, payload []byte) error {
		_, err := sp.SubmitEncoded(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	return stateOf(accounts)
}

// crossPayloads builds a single-producer schedule where every fourth
// transfer spans both partitions under the live instance's layout.
func crossPayloads(sp *shard.ShardedPipeline, accounts []stm.Var, n int) []xfer {
	payloads := make([]xfer, n)
	buckets := bucketsOf(sp, accounts)
	for i := range payloads {
		if i%4 == 0 && len(buckets[0]) > 0 && len(buckets[1]) > 0 {
			payloads[i] = xfer{
				from: uint32(buckets[0][i%len(buckets[0])]),
				to:   uint32(buckets[1][i%len(buckets[1])]),
			}
		} else {
			payloads[i] = xferFor(uint64(i))
		}
	}
	return payloads
}

// TestShardedCheckpointCrashRecovery: a sharded run with automatic
// checkpoints and heavy cross-shard traffic crashes at an arbitrary
// instant (live directory copy, torn files welcome); recovery restores
// the snapshot, seeds the per-shard watermarks, replays only the
// suffix, and must match the sequential fold of exactly the recovered
// prefix — for every ordered engine family.
func TestShardedCheckpointCrashRecovery(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.OUL, stm.OWB, stm.STMLite} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const n, shards = 1200, 2
			dir, snapDir := t.TempDir(), t.TempDir()
			accounts := newDurAccounts()
			w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 4, SegmentBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := shard.New(shard.Config{
				Shards:          shards,
				Pipeline:        stm.Config{Algorithm: alg, Workers: 2},
				WAL:             w,
				Codec:           xferCodec{accounts: accounts},
				CheckpointEvery: 150,
				Snapshotter:     shardSnapshotter(accounts),
			})
			if err != nil {
				t.Fatal(err)
			}
			payloads := crossPayloads(sp, accounts, n)
			for i := 0; i < n; i++ {
				tk, err := sp.SubmitEncoded(payloads[i].encode())
				if err != nil {
					t.Fatal(err)
				}
				if i == 2*n/3 {
					if err := tk.Wait(); err != nil {
						t.Fatal(err)
					}
					copyLogDir(t, dir, snapDir)
				}
			}
			if err := sp.Close(); err != nil {
				t.Fatal(err)
			}
			if sp.CrossShard() == 0 {
				t.Fatal("workload produced no cross-shard transactions")
			}
			if sp.Checkpoints() == 0 {
				t.Fatal("run took no checkpoints")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := wal.Recover(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Next() == 0 || rec.Next() > n {
				t.Fatalf("recovered frontier %d outside (0, %d]", rec.Next(), n)
			}
			if rec.HasCheckpoint() && rec.First() != rec.CheckpointAge() {
				t.Fatalf("First() = %d with a checkpoint at %d", rec.First(), rec.CheckpointAge())
			}
			model := foldPayloads(payloads, rec.Next())
			if got := replayCheckpointedSharded(t, alg, shards, rec); !sameState(got, model) {
				t.Fatalf("%v sharded checkpoint recovery diverges from the sequential prefix state", alg)
			}
		})
	}
}

// TestShardedCleanCloseCheckpointAndContinue: a cleanly closed
// checkpointing router leaves a replay-free log (final checkpoint at
// the full frontier); a restarted router seeded from DecodeCheckpoint
// continues the global sequence, and the combined history still folds
// to the live state.
func TestShardedCleanCloseCheckpointAndContinue(t *testing.T) {
	const n1, n2, shards = 300, 100, 2
	dir := t.TempDir()
	accounts := newDurAccounts()
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 8, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.New(shard.Config{
		Shards:          shards,
		Pipeline:        stm.Config{Algorithm: stm.OUL, Workers: 2},
		WAL:             w,
		Codec:           xferCodec{accounts: accounts},
		CheckpointEvery: 100,
		Snapshotter:     shardSnapshotter(accounts),
	})
	if err != nil {
		t.Fatal(err)
	}
	payloads := crossPayloads(sp, accounts, n1+n2)
	for i := 0; i < n1; i++ {
		tk, err := sp.SubmitEncoded(payloads[i].encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	live := stateOf(accounts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.HasCheckpoint() || rec.CheckpointAge() != n1 || rec.First() != n1 || rec.Count() != 0 {
		t.Fatalf("clean close left first=%d count=%d ckptAge=%d (has=%v), want a replay-free restart at %d",
			rec.First(), rec.Count(), rec.CheckpointAge(), rec.HasCheckpoint(), n1)
	}
	locals, app, err := shard.DecodeCheckpoint(rec.CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	if len(locals) != shards {
		t.Fatalf("checkpoint froze %d watermarks, want %d", len(locals), shards)
	}
	var sum uint64
	for _, la := range locals {
		sum += la
	}
	if sum < n1 {
		t.Fatalf("watermarks sum to %d, want >= %d (every age consumes a local age per involved shard)", sum, n1)
	}
	accounts2 := newDurAccounts()
	if err := stm.RestoreVars(accounts2, app); err != nil {
		t.Fatal(err)
	}
	if !sameState(stateOf(accounts2), live) {
		t.Fatal("restored snapshot diverges from live state at close")
	}
	w2, err := rec.Writer(wal.Options{SyncEveryN: 8, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sp2, err := shard.New(shard.Config{
		Shards:         shards,
		Pipeline:       stm.Config{Algorithm: stm.OUL, Workers: 2, FirstAge: rec.First()},
		WAL:            w2,
		Codec:          xferCodec{accounts: accounts2},
		LocalFirstAges: locals,
		Snapshotter:    shardSnapshotter(accounts2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := n1; i < n1+n2; i++ {
		tk, err := sp2.SubmitEncoded(payloads[i].encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Manual checkpoint on the restarted router: the global age picks
	// up exactly where the first incarnation froze.
	age, err := sp2.Checkpoint()
	if err != nil || age != n1+n2 {
		t.Fatalf("restarted Checkpoint() = %d, %v; want %d, nil", age, err, n1+n2)
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if want := foldPayloads(payloads, n1+n2); !sameState(stateOf(accounts2), want) {
		t.Fatal("continued sharded state diverges from the sequential fold of the full schedule")
	}
	rec2, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.HasCheckpoint() || rec2.First() != n1+n2 || rec2.Count() != 0 {
		t.Fatalf("second recovery: first=%d count=%d, want a replay-free restart at %d",
			rec2.First(), rec2.Count(), n1+n2)
	}
}

// TestShardedCheckpointConfigValidation: incomplete sharded checkpoint
// configs are rejected up front.
func TestShardedCheckpointConfigValidation(t *testing.T) {
	accounts := newDurAccounts()
	snap := shardSnapshotter(accounts)
	w, err := wal.Create(t.TempDir(), 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cases := []struct {
		name string
		cfg  shard.Config
	}{
		{"no WAL", shard.Config{Shards: 2, Pipeline: stm.Config{Algorithm: stm.OUL}, CheckpointEvery: 10, Snapshotter: snap}},
		{"no snapshotter", shard.Config{Shards: 2, Pipeline: stm.Config{Algorithm: stm.OUL}, WAL: w, Codec: xferCodec{accounts: accounts}, CheckpointEvery: 10}},
		{"bad watermarks", shard.Config{Shards: 2, Pipeline: stm.Config{Algorithm: stm.OUL}, WAL: w, Codec: xferCodec{accounts: accounts}, LocalFirstAges: []uint64{1, 2, 3}}},
	}
	for _, tc := range cases {
		if _, err := shard.New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
	if _, _, err := shard.DecodeCheckpoint([]byte{1, 0}); err == nil {
		t.Error("DecodeCheckpoint accepted a truncated state")
	}
}
