package repl_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/orderedstm/ostm/internal/faultfs"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/wal"
)

// TestFollowerDiskChaos runs the seeded fault injector against the
// follower's LOCAL disk while a clean leader streams a workload at
// it. Whatever the schedule does — transient and persistent EIO,
// ENOSPC on segment rolls, short writes, stuck fsyncs, under both
// terminal-failure policies — the replication safety property must
// hold: recovering the follower's directory with the real filesystem
// afterwards yields a contiguous prefix of exactly the history the
// leader acknowledged, byte for byte. The follower may stop applying
// (fail-stop surfaces through Err) or sail on volatile (degrade),
// but its disk can never hold an age the leader didn't commit, a gap,
// or a divergent payload. Schedules are deterministic in the seed, so
// a failing (seed, policy) pair replays exactly; the nightly soak
// repeats this suite under -race -count N.
func TestFollowerDiskChaos(t *testing.T) {
	seeds := []struct {
		seed   uint64
		onFail wal.FailPolicy
	}{
		{3, wal.FailStop},
		{9, wal.FailStop},
		{17, wal.FailStop},
		{29, wal.FailStop},
		{4, wal.Degrade},
		{12, wal.Degrade},
		{26, wal.Degrade},
	}
	var injected uint64
	for _, tc := range seeds {
		tc := tc
		t.Run(fmt.Sprintf("seed%d/%s", tc.seed, tc.onFail), func(t *testing.T) {
			injected += testFollowerDiskChaos(t, tc.seed, tc.onFail)
		})
	}
	if injected == 0 {
		t.Fatal("no seed in the set fired a single fault — the schedules miss the run entirely")
	}
}

func testFollowerDiskChaos(t *testing.T, seed uint64, onFail wal.FailPolicy) uint64 {
	const n = 2000
	leader := startLeader(t, stm.OUL, 1, t.TempDir(), wal.Options{SyncEveryN: 8, SegmentBytes: 4 << 10})
	defer leader.closeEngine()
	defer shutdownNow(leader.srv)

	fs := faultfs.FromSeed(nil, seed)
	fdir := t.TempDir()
	fol, f, _ := startFollower(t, stm.OUL, 1, fdir, leader.addr, wal.Options{
		FS:           fs,
		SyncEveryN:   8,
		SegmentBytes: 4 << 10, // frequent rolls give open/rename faults a target
		Retry:        wal.RetryPolicy{Max: 2},
		OnFail:       onFail,
	})

	byAge := make(map[uint64][]byte, n)
	for i := 0; i < n; i++ {
		pl := transferPayload(uint32((i*7)%replAccounts), uint32((i*13+1)%replAccounts))
		tk, err := leader.submit(pl)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		byAge[tk.Age()] = pl
	}

	// The follower either catches up (the schedule missed, or degrade
	// detached durability under a still-running engine) or dies on a
	// local durability error. Both are legal; hanging is not.
	deadline := time.Now().Add(30 * time.Second)
	for f.Frontier() < n && f.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("follower wedged at frontier %d (err %v, %d faults: %v)",
				f.Frontier(), f.Err(), fs.Injected(), fs.Log())
		}
		time.Sleep(2 * time.Millisecond)
	}
	frontier, applyErr := f.Frontier(), f.Err()
	_ = f.Close()
	fol.closeEngine() // close errors are the fault schedule talking; recovery is the oracle
	shutdownNow(fol.srv)

	// The oracle reads the surviving disk with the real filesystem —
	// the injector only ever targeted the live writer.
	rec, err := wal.Recover(fdir)
	if err != nil {
		t.Fatalf("seed %d left an unrecoverable follower log: %v (faults: %v)", seed, err, fs.Log())
	}
	if rec.First() != 0 {
		t.Fatalf("follower of an uncompacted leader recovered first age %d, want 0", rec.First())
	}
	if got := rec.Next(); got != rec.First()+uint64(rec.Count()) {
		t.Fatalf("recovered log is not contiguous: first %d + %d records != next %d",
			rec.First(), rec.Count(), got)
	}
	if uint64(rec.Count()) > frontier {
		t.Fatalf("disk holds %d records but only %d were applied — log ran ahead of the engine",
			rec.Count(), frontier)
	}
	if err := rec.Replay(func(age uint64, payload []byte) error {
		want, ok := byAge[age]
		if !ok {
			t.Fatalf("follower disk holds age %d the leader never acknowledged", age)
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("age %d diverged: follower %x, leader %x", age, payload, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d/%s: %d faults, frontier %d, recovered prefix %d, apply err: %v",
		seed, onFail, fs.Injected(), frontier, rec.Count(), applyErr)
	return fs.Injected()
}
