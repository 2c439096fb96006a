package shard_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

const durAccounts = 96

// xfer is the sharded durable workload payload. The account pair is
// arbitrary relative to the partition layout, so a large fraction of
// transactions are genuinely cross-shard and exercise fence recovery.
type xfer struct{ from, to uint32 }

func xferFor(g uint64) xfer {
	return xfer{
		from: uint32((g * 7) % durAccounts),
		to:   uint32((g*13 + 1) % durAccounts),
	}
}

// xferCodec decodes a payload into its access declaration and body —
// the partition-aware half of the durability contract.
type xferCodec struct{ accounts []stm.Var }

func (c xferCodec) Encode(payload any) ([]byte, error) {
	x, ok := payload.(xfer)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], x.from)
	binary.LittleEndian.PutUint32(b[4:8], x.to)
	return b[:], nil
}

func (c xferCodec) Decode(data []byte) (stm.Access, stm.Body, error) {
	if len(data) != 8 {
		return stm.Access{}, nil, fmt.Errorf("bad payload length %d", len(data))
	}
	from := binary.LittleEndian.Uint32(data[0:4])
	to := binary.LittleEndian.Uint32(data[4:8])
	if int(from) >= len(c.accounts) || int(to) >= len(c.accounts) {
		return stm.Access{}, nil, fmt.Errorf("transfer %d→%d out of range", from, to)
	}
	accounts := c.accounts
	body := func(tx stm.Tx, age int) {
		amt := uint64(age%5) + 1
		bf := tx.Read(&accounts[from])
		if bf >= amt && from != to {
			tx.Write(&accounts[from], bf-amt)
			tx.Write(&accounts[to], tx.Read(&accounts[to])+amt)
		}
	}
	return stm.Touches(&accounts[from], &accounts[to]), body, nil
}

// foldModel applies the records' semantics sequentially in global-age
// order over plain integers — the ground truth every recovery must
// match.
func foldModel(t *testing.T, recs []wal.Record, first uint64) []uint64 {
	t.Helper()
	balances := make([]uint64, durAccounts)
	for i := range balances {
		balances[i] = 1000
	}
	for i, rec := range recs {
		if len(rec.Payload) != 8 {
			t.Fatalf("record %d: bad payload length %d", i, len(rec.Payload))
		}
		if want := first + uint64(i); rec.Age != want {
			t.Fatalf("record %d has age %d, want %d", i, rec.Age, want)
		}
		from := binary.LittleEndian.Uint32(rec.Payload[0:4])
		to := binary.LittleEndian.Uint32(rec.Payload[4:8])
		amt := rec.Age%5 + 1
		if balances[from] >= amt && from != to {
			balances[from] -= amt
			balances[to] += amt
		}
	}
	return balances
}

// bucketsOf groups account indices by owning shard under the live
// instance's layout (must find both partitions populated).
func bucketsOf(sp *shard.ShardedPipeline, accounts []stm.Var) [][]int {
	buckets := make([][]int, sp.Shards())
	for i := range accounts {
		s := sp.ShardOf(&accounts[i])
		buckets[s] = append(buckets[s], i)
	}
	return buckets
}

func newDurAccounts() []stm.Var {
	vs := stm.NewVars(durAccounts)
	for i := range vs {
		vs[i].Store(1000)
	}
	return vs
}

func stateOf(vs []stm.Var) []uint64 {
	out := make([]uint64, len(vs))
	for i := range vs {
		out[i] = vs[i].Load()
	}
	return out
}

func sameState(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// replayShardedState replays a recovered log through a fresh sharded
// router with the same shard count and returns the rebuilt state.
func replayShardedState(t *testing.T, alg stm.Algorithm, shards int, rec *wal.Recovery) []uint64 {
	t.Helper()
	accounts := newDurAccounts()
	dir := t.TempDir() // scratch log for the replay instance
	w, err := wal.Create(dir, rec.First(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sp, err := shard.New(shard.Config{
		Shards:   shards,
		Pipeline: stm.Config{Algorithm: alg, Workers: 2, FirstAge: rec.First()},
		WAL:      w,
		Codec:    xferCodec{accounts: accounts},
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

// TestShardedDurableDeterminismEveryOrderedEngine: for every ordered
// engine, a sharded durable stream (with heavy cross-shard traffic),
// its WAL replayed through a fresh sharded router, and the sequential
// model all agree.
func TestShardedDurableDeterminismEveryOrderedEngine(t *testing.T) {
	for _, alg := range stm.OrderedAlgorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const n, shards = 400, 2
			dir := t.TempDir()
			accounts := newDurAccounts()
			w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := shard.New(shard.Config{
				Shards:      shards,
				Pipeline:    stm.Config{Algorithm: alg, Workers: 2},
				WAL:         w,
				Codec:       xferCodec{accounts: accounts},
				WaitDurable: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Build the payload schedule against the live layout: every
			// fourth transfer deliberately spans both partitions (the
			// hash layout shifts with Var id allocation, so pairs
			// derived from indices alone can land anywhere — including,
			// for unlucky id bases, never crossing at all).
			payloads := make([]xfer, n)
			buckets := bucketsOf(sp, accounts)
			for i := range payloads {
				if i%4 == 0 {
					payloads[i] = xfer{
						from: uint32(buckets[0][i%len(buckets[0])]),
						to:   uint32(buckets[1][i%len(buckets[1])]),
					}
				} else {
					payloads[i] = xferFor(uint64(i))
				}
			}
			const producers = 4
			var wg sync.WaitGroup
			for c := 0; c < producers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < n; i += producers {
						tk, err := sp.SubmitPayload(payloads[i])
						if err != nil {
							t.Errorf("submit: %v", err)
							return
						}
						if err := tk.Wait(); err != nil {
							t.Errorf("wait: %v", err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if err := sp.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := sp.Durable(), uint64(n); got != want {
				t.Fatalf("durable frontier after Close = %d, want %d", got, want)
			}
			if sp.CrossShard() == 0 {
				t.Fatal("workload produced no cross-shard transactions")
			}
			live := stateOf(accounts)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Count() != n {
				t.Fatalf("recovered %d records, want %d", rec.Count(), n)
			}
			model := foldModel(t, rec.Records(), 0)
			if !sameState(live, model) {
				t.Fatal("live sharded state diverges from sequential model of the log")
			}
			if got := replayShardedState(t, alg, shards, rec); !sameState(got, model) {
				t.Fatalf("%v sharded replay diverges from sequential model", alg)
			}
		})
	}
}

// TestShardedCrashPrefix snapshots the router's WAL mid-stream (a
// crash at an arbitrary instant) and asserts the recovered prefix —
// cross-shard fences included — replays to the sequential state of
// exactly that prefix.
func TestShardedCrashPrefix(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.OUL, stm.OWB, stm.STMLite} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const n, shards = 1200, 2
			dir := t.TempDir()
			accounts := newDurAccounts()
			w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 4, SegmentBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := shard.New(shard.Config{
				Shards:   shards,
				Pipeline: stm.Config{Algorithm: alg, Workers: 2},
				WAL:      w,
				Codec:    xferCodec{accounts: accounts},
			})
			if err != nil {
				t.Fatal(err)
			}
			snapDir := t.TempDir()
			for i := 0; i < n; i++ {
				tk, err := sp.SubmitPayload(xferFor(uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				if i == n/2 {
					if err := tk.Wait(); err != nil {
						t.Fatal(err)
					}
					copyLogDir(t, dir, snapDir)
				}
			}
			if err := sp.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := wal.Recover(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Count() == 0 || rec.Count() > n {
				t.Fatalf("recovered %d records from a %d-transaction run", rec.Count(), n)
			}
			model := foldModel(t, rec.Records(), 0)
			if got := replayShardedState(t, alg, shards, rec); !sameState(got, model) {
				t.Fatalf("%v sharded crash replay diverges from sequential prefix state", alg)
			}
		})
	}
}

func copyLogDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			// A checkpoint's temp file, renamed since ReadDir: a crash
			// at the listing would have lost it as well.
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedDurableRejectsOpaqueBodies: a WAL-backed router refuses
// submissions it cannot replay.
func TestShardedDurableRejectsOpaqueBodies(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	accounts := newDurAccounts()
	sp, err := shard.New(shard.Config{
		Shards:   2,
		Pipeline: stm.Config{Algorithm: stm.OUL},
		WAL:      w,
		Codec:    xferCodec{accounts: accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	body := func(stm.Tx, int) {}
	if _, err := sp.Submit(stm.Touches(&accounts[0]), body); !errors.Is(err, stm.ErrPayloadRequired) {
		t.Fatalf("Submit err = %v, want ErrPayloadRequired", err)
	}
	if _, err := sp.SubmitBatch([]shard.Request{{Access: stm.Touches(&accounts[0]), Body: body}}); !errors.Is(err, stm.ErrPayloadRequired) {
		t.Fatalf("SubmitBatch err = %v, want ErrPayloadRequired", err)
	}
}

// TestShardedWaitDurableDefersUntilSync: under sync policy "none", a
// cross-shard transaction's ticket resolves only once an explicit
// Sync lands its global age on stable storage.
func TestShardedWaitDurableDefersUntilSync(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(dir, 0, wal.Options{}) // policy none
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	accounts := newDurAccounts()
	sp, err := shard.New(shard.Config{
		Shards:      2,
		Pipeline:    stm.Config{Algorithm: stm.OUL, Workers: 2},
		WAL:         w,
		Codec:       xferCodec{accounts: accounts},
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a pair spanning both shards so the submission is genuinely
	// cross-shard.
	var cross xfer
	found := false
	for i := 1; i < durAccounts && !found; i++ {
		if sp.ShardOf(&accounts[0]) != sp.ShardOf(&accounts[i]) {
			cross = xfer{from: 0, to: uint32(i)}
			found = true
		}
	}
	if !found {
		t.Fatal("no cross-shard pair found")
	}
	tk, err := sp.SubmitPayload(cross)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sp.Stats().Commits < 2 { // both fences committed
		if time.Now().After(deadline) {
			t.Fatal("cross-shard transaction never committed")
		}
		time.Sleep(time.Millisecond)
	}
	if err, resolved := tk.Err(); resolved {
		t.Fatalf("ticket resolved (%v) before its age was durable", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if sp.Durable() == 0 {
		t.Fatal("durability frontier did not advance")
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRecoveredRouterContinues: run, close, recover, replay
// through a WAL-attached router, submit new work, recover again — the
// global log must hold the uninterrupted sequence.
func TestShardedRecoveredRouterContinues(t *testing.T) {
	const n1, n2, shards = 150, 100, 2
	dir := t.TempDir()
	accounts := newDurAccounts()
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.New(shard.Config{
		Shards:   shards,
		Pipeline: stm.Config{Algorithm: stm.OUL, Workers: 2},
		WAL:      w,
		Codec:    xferCodec{accounts: accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n1; i++ {
		tk, err := sp.SubmitPayload(xferFor(uint64(i)))
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
	preCrash := stateOf(accounts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != n1 {
		t.Fatalf("recovered %d records, want %d", rec.Count(), n1)
	}
	w2, err := rec.Writer(wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	accounts2 := newDurAccounts()
	sp2, err := shard.New(shard.Config{
		Shards:      shards,
		Pipeline:    stm.Config{Algorithm: stm.OUL, Workers: 2, FirstAge: rec.First()},
		WAL:         w2,
		Codec:       xferCodec{accounts: accounts2},
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(func(age uint64, payload []byte) error {
		_, err := sp2.SubmitEncoded(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := sp2.Drain(); err != nil {
		t.Fatal(err)
	}
	if !sameState(stateOf(accounts2), preCrash) {
		t.Fatal("replayed sharded state diverges from pre-crash state")
	}
	for i := n1; i < n1+n2; i++ {
		tk, err := sp2.SubmitPayload(xferFor(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}
	finalState := stateOf(accounts2)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Count() != n1+n2 {
		t.Fatalf("final log holds %d records, want %d", rec2.Count(), n1+n2)
	}
	if model := foldModel(t, rec2.Records(), 0); !sameState(model, finalState) {
		t.Fatal("final log model diverges from live state")
	}
}
