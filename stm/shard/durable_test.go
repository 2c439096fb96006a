package shard_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
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

// encode is the transfer's 8-byte wire form, what a durable router
// is handed and its log stores.
func (x xfer) encode() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], x.from)
	binary.LittleEndian.PutUint32(b[4:8], x.to)
	return b[:]
}

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
	return x.encode(), nil
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

// replayed collects the records Recovery.Replay streams.
func replayed(t *testing.T, rec *wal.Recovery) []wal.Record {
	t.Helper()
	var recs []wal.Record
	if err := rec.Replay(func(age uint64, payload []byte) error {
		recs = append(recs, wal.Record{Age: age, Payload: payload})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
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
						tk, err := sp.SubmitEncoded(payloads[i].encode())
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
			model := foldModel(t, replayed(t, rec), 0)
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
				tk, err := sp.SubmitEncoded(xferFor(uint64(i)).encode())
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
			model := foldModel(t, replayed(t, rec), 0)
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
	ctx := context.Background()
	if _, err := sp.SubmitCtx(ctx, shard.Request{Access: stm.Touches(&accounts[0]), Body: body}); !errors.Is(err, stm.ErrPayloadRequired) {
		t.Fatalf("SubmitCtx err = %v, want ErrPayloadRequired", err)
	}
	batch := []shard.Request{{Encoded: xferFor(0).encode()}, {Access: stm.Touches(&accounts[0]), Body: body}}
	if out, err := sp.SubmitBatch(ctx, batch, nil); !errors.Is(err, stm.ErrPayloadRequired) || len(out) != 0 {
		t.Fatalf("SubmitBatch = (%d tickets, %v), want ErrPayloadRequired for the whole batch", len(out), err)
	}
	if _, err := shard.SubmitFunc(ctx, sp, stm.Touches(&accounts[0]), func(stm.Tx, int) uint64 { return 0 }); !errors.Is(err, stm.ErrPayloadRequired) {
		t.Fatalf("SubmitFunc err = %v, want ErrPayloadRequired", err)
	}
	if got := sp.Submitted(); got != 0 {
		t.Fatalf("refused submissions consumed %d ages", got)
	}
}

// TestShardRequestForm: a Request sets exactly one of Body and
// Encoded, and an Encoded request leaves Access to the Codec. A
// malformed request is refused before any global age is assigned —
// alone, or anywhere in a batch, which it then refuses whole.
func TestShardRequestForm(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	accounts := newDurAccounts()
	sp, err := shard.New(shard.Config{
		Shards:   2,
		Pipeline: stm.Config{Algorithm: stm.OWB},
		WAL:      w,
		Codec:    xferCodec{accounts: accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	ctx := context.Background()
	data := xferFor(0).encode()
	for name, r := range map[string]shard.Request{
		"neither Body nor Encoded": {},
		"both Body and Encoded":    {Body: func(stm.Tx, int) {}, Encoded: data},
		"Encoded and Access":       {Access: stm.Touches(&accounts[0]), Encoded: data},
	} {
		if tk, err := sp.SubmitCtx(ctx, r); err == nil || tk != nil {
			t.Errorf("SubmitCtx of a request with %s: (%v, %v), want a refusal", name, tk, err)
		}
		if out, err := sp.SubmitBatch(ctx, []shard.Request{{Encoded: data}, r}, nil); err == nil || len(out) != 0 {
			t.Errorf("SubmitBatch holding a request with %s: (%d tickets, %v), want the whole batch refused", name, len(out), err)
		}
	}
	if got := sp.Submitted(); got != 0 {
		t.Fatalf("refused requests consumed %d ages", got)
	}
	// The router copies an encoded request: clobbering the caller's
	// buffer right after submission changes nothing.
	tk, err := sp.SubmitCtx(ctx, shard.Request{Encoded: data})
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recs := replayed(t, rec); len(recs) != 1 || string(recs[0].Payload) != string(xferFor(0).encode()) {
		t.Fatalf("log holds %v, want the one transfer as submitted", recs)
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
	tk, err := sp.SubmitEncoded(cross.encode())
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

// muteFailLog is a log whose Sync fails without ever firing the
// durability observer.
type muteFailLog struct{}

func (muteFailLog) Append(uint64, []byte) error         { return nil }
func (muteFailLog) Notify(func(next uint64, err error)) {}
func (muteFailLog) Sync() error                         { return syscall.EIO }
func (muteFailLog) Durable() uint64                     { return 0 }

// TestShardedWaitDurableCloseSyncFailureWithoutNotify: a closing sync
// that fails without a notification fails every parked WaitDurable
// ticket with the DurabilityError Close reports, not ErrClosed.
func TestShardedWaitDurableCloseSyncFailureWithoutNotify(t *testing.T) {
	accounts := newDurAccounts()
	sp, err := shard.New(shard.Config{
		Shards:      2,
		Pipeline:    stm.Config{Algorithm: stm.OUL, Workers: 2},
		WAL:         muteFailLog{},
		Codec:       xferCodec{accounts: accounts},
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*shard.Ticket
	for g := uint64(0); g < 16; g++ {
		tk, err := sp.SubmitEncoded(xferFor(g).encode())
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	var de *stm.DurabilityError
	if err := sp.Close(); !errors.As(err, &de) {
		t.Fatalf("Close = %v, want DurabilityError", err)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); !errors.As(err, &de) {
			t.Fatalf("ticket %d resolved with %v, want the DurabilityError Close reported", tk.Age(), err)
		}
	}
}

// boomCodec is xferCodec plus one faulting transaction: a transfer
// from an account to itself declares every shard and panics.
type boomCodec struct{ xferCodec }

func (c boomCodec) Decode(data []byte) (stm.Access, stm.Body, error) {
	access, body, err := c.xferCodec.Decode(data)
	if err == nil && string(data[:4]) == string(data[4:]) {
		return stm.TouchesAll(), func(stm.Tx, int) { panic("boom") }, nil
	}
	return access, body, err
}

// TestShardedWaitDurableCrossFault: under WaitDurable the router, not
// the fence tickets, resolves a cross-shard ticket, so a fault must
// reach it through the router: the faulter's ticket resolves with its
// *stm.Fault and every later one with *stm.Stopped, without waiting for
// Close. The single-shard transactions ahead of the faulter all
// committed (it fences every shard), so their tickets must never
// report a failure — even when the stop lands before a shard reported
// their commits to the router — and resolve nil once Close syncs the
// tail (the log's policy is none, so nothing is durable before that).
func TestShardedWaitDurableCrossFault(t *testing.T) {
	const shards, before, after = 3, 40, 20
	w, err := wal.Create(t.TempDir(), 0, wal.Options{}) // policy none
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	accounts := newDurAccounts()
	sp, err := shard.New(shard.Config{
		Shards:      shards,
		Pipeline:    stm.Config{Algorithm: stm.OWB, Workers: 2},
		WAL:         w,
		Codec:       boomCodec{xferCodec{accounts}},
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bk := bucketsOf(sp, accounts)
	local := func(i int) xfer { // a transfer inside shard i%shards
		b := bk[i%shards]
		return xfer{from: uint32(b[i%len(b)]), to: uint32(b[(i+1)%len(b)])}
	}
	var tks []*shard.Ticket
	for i := 0; i < before+1+after; i++ {
		x := local(i)
		switch {
		case i == before:
			x = xfer{from: 1, to: 1}
		case i > before:
			x.to = uint32(bk[(i+1)%shards][0]) // cross-shard
		}
		tk, err := sp.SubmitEncoded(x.encode())
		if err != nil {
			break // the stream stopped while we submitted
		}
		tks = append(tks, tk)
	}
	if len(tks) <= before {
		t.Fatalf("only %d submissions accepted; the faulter must be among them", len(tks))
	}
	for g := before; g < len(tks); g++ {
		err := outcome(t, tks[g])
		if g == before {
			if f, ok := err.(*stm.Fault); !ok || f.Age != before || f.Value != "boom" {
				t.Fatalf("faulting ticket resolved with %v, want its own *stm.Fault", err)
			}
		} else if st, ok := err.(*stm.Stopped); !ok || st.Fault.Age != before {
			t.Fatalf("post-fault ticket %d resolved with %v, want *stm.Stopped{%d}", g, err, before)
		}
	}
	for g, tk := range tks[:before] {
		if err, ok := tk.Err(); ok && err != nil {
			t.Fatalf("committed ticket %d resolved with %v", g, err)
		}
	}
	var f *stm.Fault
	if err := sp.Close(); !errors.As(err, &f) || f.Age != before {
		t.Fatalf("Close = %v, want the fault at global age %d", err, before)
	}
	for g, tk := range tks[:before] {
		if err := outcome(t, tk); err != nil {
			t.Fatalf("committed ticket %d resolved with %v after the closing sync", g, err)
		}
	}
	if got := sp.Durable(); got != before {
		t.Fatalf("durable frontier %d, want %d: exactly the pre-fault ages", got, before)
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
		tk, err := sp.SubmitEncoded(xferFor(uint64(i)).encode())
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
		tk, err := sp2.SubmitEncoded(xferFor(uint64(i)).encode())
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
	if model := foldModel(t, replayed(t, rec2), 0); !sameState(model, finalState) {
		t.Fatal("final log model diverges from live state")
	}
}
