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

// holdCodec is xferCodec whose self-transfers (a no-op in the fold)
// wait for hold to close before they run: one of them holds its
// shard's commit frontier, so submissions behind it fill the shard's
// Capacity and park.
type holdCodec struct {
	xferCodec
	hold <-chan struct{}
}

func (c holdCodec) Decode(data []byte) (stm.Access, stm.Body, error) {
	access, body, err := c.xferCodec.Decode(data)
	if err == nil && string(data[:4]) == string(data[4:]) {
		hold := c.hold
		return access, func(tx stm.Tx, age int) { <-hold; body(tx, age) }, nil
	}
	return access, body, err
}

// TestShardSubmitBatchCancelDuringBackpressure: a batch parked at a
// shard's Capacity honours ctx there with SubmitCtx's withdrawal rule.
// It returns promptly with an error wrapping stm.ErrCanceled; the
// accepted prefix (a cross-shard request among it) keeps its tickets,
// which resolve nil once the frontier moves; the refused positions are
// nil and consumed no global age, so the next submission gets the next
// contiguous one. The durable variant's log recovers without a gap.
func TestShardSubmitBatchCancelDuringBackpressure(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "volatile"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { batchCancelDuringBackpressure(t, durable) })
	}
}

func batchCancelDuringBackpressure(t *testing.T, durable bool) {
	accounts := newDurAccounts()
	hold := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	codec := holdCodec{xferCodec{accounts: accounts}, hold}
	cfg := shard.Config{Shards: 2, Pipeline: stm.Config{Algorithm: stm.OWB, Workers: 2}}
	dir := t.TempDir()
	var w *wal.Writer
	if durable {
		var err error
		if w, err = wal.Create(dir, 0, wal.Options{}); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		cfg.WAL, cfg.Codec = w, codec
	}
	sp, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	defer release() // before Close, which drains the held age
	req := func(x xfer) shard.Request {
		if durable {
			return shard.Request{Encoded: x.encode()}
		}
		access, body, err := codec.Decode(x.encode())
		if err != nil {
			t.Fatal(err)
		}
		return shard.Request{Access: access, Body: body}
	}
	bk := bucketsOf(sp, accounts)
	local := func(i int) xfer {
		a := bk[0]
		return xfer{from: uint32(a[i%len(a)]), to: uint32(a[(i+1)%len(a)])}
	}

	holder, err := sp.SubmitCtx(context.Background(), req(xfer{from: uint32(bk[0][0]), to: uint32(bk[0][0])}))
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 has room for capacity-1 more: the batch's first
	// capacity-1 requests (the second spans both shards) are accepted
	// and the next one parks.
	capacity := sp.PipelineConfig().Capacity
	reqs := make([]shard.Request, capacity+4)
	for i := range reqs {
		reqs[i] = req(local(i + 1))
	}
	reqs[1] = req(xfer{from: uint32(bk[0][1]), to: uint32(bk[1][0])})
	accepted := capacity - 1

	ctx, cancel := context.WithCancel(context.Background())
	type res struct {
		tks []*shard.Ticket
		err error
	}
	done := make(chan res, 1)
	go func() {
		out, err := sp.SubmitBatch(ctx, reqs, nil)
		done <- res{out, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("SubmitBatch returned (%d tickets, %v) while shard 0 was full", len(r.tks), r.err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	var r res
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		release() // let the parked batch finish so the router can close
		t.Fatal("canceled SubmitBatch stayed parked at the shard's Capacity")
	}
	if !errors.Is(r.err, stm.ErrCanceled) || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want ErrCanceled wrapping context.Canceled", r.err)
	}
	if len(r.tks) != len(reqs) {
		t.Fatalf("batch returned %d positions for %d requests", len(r.tks), len(reqs))
	}
	for i, tk := range r.tks {
		if (tk != nil) != (i < accepted) {
			t.Fatalf("position %d: ticket %v, want the first %d accepted and the rest nil", i, tk, accepted)
		}
	}
	if got := sp.Submitted(); got != uint64(1+accepted) {
		t.Fatalf("Submitted = %d, want %d (the holder and the accepted prefix)", got, 1+accepted)
	}

	release()
	for _, tk := range append([]*shard.Ticket{holder}, r.tks[:accepted]...) {
		if err := tk.Wait(); err != nil {
			t.Fatalf("age %d: %v", tk.Age(), err)
		}
	}
	next, err := sp.SubmitCtx(context.Background(), req(local(0)))
	if err != nil {
		t.Fatal(err)
	}
	if next.Age() != uint64(1+accepted) {
		t.Fatalf("next submission got age %d, want %d", next.Age(), 1+accepted)
	}
	if err := next.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if !durable {
		return
	}
	live := stateOf(accounts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 2+accepted {
		t.Fatalf("recovered %d records, want %d", rec.Count(), 2+accepted)
	}
	// foldModel fails on any record out of contiguous age order.
	if model := foldModel(t, replayed(t, rec), 0); !sameState(live, model) {
		t.Fatal("live state diverges from the sequential model of the log")
	}
}
