package shard_test

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

// TestShardSubmitBatchDurable: the batched durable submit path
// (encoded requests, heavy cross-shard traffic, WaitDurable) produces
// the same state as the sequential fold of its WAL, and a fresh router
// replaying that WAL rebuilds it — i.e. the batch path writes exactly
// the same log the one-at-a-time path would. Half the producers
// overwrite their encode buffers as soon as SubmitBatch returns, which
// the router's copy of every encoded request allows.
func TestShardSubmitBatchDurable(t *testing.T) {
	const n, shards, batch = 384, 2, 16
	dir := t.TempDir()
	accounts := newDurAccounts()
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.New(shard.Config{
		Shards:      shards,
		Pipeline:    stm.Config{Algorithm: stm.OUL, Workers: 2},
		WAL:         w,
		Codec:       xferCodec{accounts: accounts},
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Schedule against the live layout: every fourth transfer spans
	// both partitions, so each batch carries single- and cross-shard
	// requests interleaved.
	buckets := bucketsOf(sp, accounts)
	payloads := make([]xfer, n)
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

	const producers = 3
	var wg sync.WaitGroup
	per := n / producers
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := payloads[c*per : (c+1)*per]
			reuse := c%2 == 1
			reqs := make([]shard.Request, batch)
			for off := 0; off < len(mine); off += batch {
				end := off + batch
				if end > len(mine) {
					end = len(mine)
				}
				reqs = reqs[:end-off]
				for i := range reqs {
					if reuse && reqs[i].Encoded != nil {
						x := mine[off+i]
						binary.LittleEndian.PutUint32(reqs[i].Encoded[0:4], x.from)
						binary.LittleEndian.PutUint32(reqs[i].Encoded[4:8], x.to)
					} else {
						reqs[i] = shard.Request{Encoded: mine[off+i].encode()}
					}
				}
				tks, err := sp.SubmitBatch(context.Background(), reqs, nil)
				if reuse {
					for i := range reqs {
						clear(reqs[i].Encoded) // the router holds its own copies
					}
				}
				if err != nil {
					t.Errorf("batch submit: %v", err)
					return
				}
				// Batch ages are consecutive — one sequencer hold.
				for i := 1; i < len(tks); i++ {
					if tks[i].Age() != tks[i-1].Age()+1 {
						t.Errorf("batch ages not consecutive: %d then %d", tks[i-1].Age(), tks[i].Age())
						return
					}
				}
				for _, tk := range tks {
					if err := tk.Wait(); err != nil {
						t.Errorf("wait: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sp.Durable(); got != uint64(producers*per) {
		t.Fatalf("durable frontier after Close = %d, want %d", got, producers*per)
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
	if rec.Count() != producers*per {
		t.Fatalf("recovered %d records, want %d", rec.Count(), producers*per)
	}
	model := foldModel(t, replayed(t, rec), 0)
	if !sameState(live, model) {
		t.Fatal("live state diverges from sequential model of the batch-written log")
	}
	if got := replayShardedState(t, stm.OUL, shards, rec); !sameState(got, model) {
		t.Fatal("replayed state diverges from the model")
	}
}

// TestShardSubmitBatchCanceled: a pre-canceled context refuses the
// whole batch (and a single encoded request) before any age is
// assigned, and the router stays fully usable afterwards.
func TestShardSubmitBatchCanceled(t *testing.T) {
	dir := t.TempDir()
	accounts := newDurAccounts()
	w, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sp, err := shard.New(shard.Config{
		Shards:   2,
		Pipeline: stm.Config{Algorithm: stm.OUL, Workers: 2},
		WAL:      w,
		Codec:    xferCodec{accounts: accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The sharded batch result is index-preserving: refused positions
	// are nil in a full-length slice. Pre-canceled ⇒ all nil.
	reqs := []shard.Request{{Encoded: xferFor(0).encode()}, {Encoded: xferFor(1).encode()}}
	out, err := sp.SubmitBatch(ctx, reqs, nil)
	if !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("pre-canceled batch: %v", err)
	}
	for i, tk := range out {
		if tk != nil {
			t.Fatalf("pre-canceled batch accepted request %d", i)
		}
	}
	if _, err := sp.SubmitCtx(ctx, shard.Request{Encoded: xferFor(0).encode()}); !errors.Is(err, stm.ErrCanceled) {
		t.Fatalf("pre-canceled SubmitCtx: %v", err)
	}
	if got := sp.Submitted(); got != 0 {
		t.Fatalf("refused submissions consumed ages: %d", got)
	}

	tks, err := sp.SubmitBatch(context.Background(), append(reqs, shard.Request{Encoded: xferFor(2).encode()}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sp.Submitted(); got != 3 {
		t.Fatalf("Submitted = %d, want 3", got)
	}
}
