package stm_test

import (
	"context"
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
	"github.com/orderedstm/ostm/stm/wal"
)

// transfer is the durable test workload's payload: move amt (derived
// from the age) from one account to another. Bodies are deterministic
// functions of (age, memory), so the WAL's input-replay property
// holds.
type transfer struct{ from, to uint32 }

// encode is the transfer's 8-byte wire form, what a durable pipeline
// is handed and its log stores.
func (t transfer) encode() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], t.from)
	binary.LittleEndian.PutUint32(b[4:8], t.to)
	return b[:]
}

// tfCodec encodes transfers and decodes them into bodies over a fixed
// account slice — the application half of the durability contract.
type tfCodec struct{ accounts []stm.Var }

func (c tfCodec) Encode(payload any) ([]byte, error) {
	t, ok := payload.(transfer)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	return t.encode(), nil
}

func (c tfCodec) Decode(data []byte) (stm.Body, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("bad transfer payload length %d", len(data))
	}
	from := binary.LittleEndian.Uint32(data[0:4])
	to := binary.LittleEndian.Uint32(data[4:8])
	if int(from) >= len(c.accounts) || int(to) >= len(c.accounts) {
		return nil, fmt.Errorf("transfer %d→%d out of range", from, to)
	}
	accounts := c.accounts
	return func(tx stm.Tx, age int) {
		amt := uint64(age%5) + 1
		bf := tx.Read(&accounts[from])
		if bf >= amt && from != to {
			tx.Write(&accounts[from], bf-amt)
			tx.Write(&accounts[to], tx.Read(&accounts[to])+amt)
		}
	}, nil
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

// applyTransfers is the model oracle: fold the decoded semantics over
// plain uint64s, sequentially, in age order.
func applyTransfers(balances []uint64, recs []wal.Record, firstAge uint64) error {
	for i, rec := range recs {
		if len(rec.Payload) != 8 {
			return fmt.Errorf("record %d: bad payload", i)
		}
		from := binary.LittleEndian.Uint32(rec.Payload[0:4])
		to := binary.LittleEndian.Uint32(rec.Payload[4:8])
		age := firstAge + uint64(i)
		if rec.Age != age {
			return fmt.Errorf("record %d has age %d, want %d", i, rec.Age, age)
		}
		amt := uint64(age%5) + 1
		if balances[from] >= amt && from != to {
			balances[from] -= amt
			balances[to] += amt
		}
	}
	return nil
}

func newAccounts(n int, balance uint64) []stm.Var {
	vs := stm.NewVars(n)
	for i := range vs {
		vs[i].Store(balance)
	}
	return vs
}

func equalState(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const durableAccounts = 64

func transferFor(age uint64) transfer {
	return transfer{
		from: uint32((age * 7) % durableAccounts),
		to:   uint32((age*13 + 1) % durableAccounts),
	}
}

// runDurableStream drives n transfers through a WAL-backed pipeline
// from several concurrent producers and returns the final state.
func runDurableStream(t *testing.T, alg stm.Algorithm, dir string, n int, waitDurable bool) []uint64 {
	t.Helper()
	accounts := newAccounts(durableAccounts, 1000)
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:   alg,
		Workers:     4,
		WAL:         w,
		Codec:       tfCodec{accounts: accounts},
		WaitDurable: waitDurable,
	})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 4
	var wg sync.WaitGroup
	for c := 0; c < producers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += producers {
				tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
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
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Durable(), uint64(n); got != want {
		t.Fatalf("durable frontier after Close = %d, want %d", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshot(accounts)
}

// recoverState replays a recovered log through a fresh pipeline of
// the given algorithm and returns the reconstructed state.
func recoverState(t *testing.T, alg stm.Algorithm, rec *wal.Recovery) []uint64 {
	t.Helper()
	accounts := newAccounts(durableAccounts, 1000)
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

// TestDurableDeterminismEveryOrderedEngine is the WaitDurable
// determinism suite: for every order-enforcing algorithm, a durable
// stream's final state, the recovered log replayed through the same
// engine, replayed through Sequential, and the plain model fold all
// agree — recovery ≡ replay ≡ sequential execution.
func TestDurableDeterminismEveryOrderedEngine(t *testing.T) {
	algs := append([]stm.Algorithm{stm.Sequential}, stm.OrderedAlgorithms()...)
	for _, alg := range algs {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const n = 600
			dir := t.TempDir()
			live := runDurableStream(t, alg, dir, n, true)

			rec, err := wal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Count() != n {
				t.Fatalf("recovered %d records, want %d", rec.Count(), n)
			}
			model := make([]uint64, durableAccounts)
			for i := range model {
				model[i] = 1000
			}
			if err := applyTransfers(model, replayed(t, rec), 0); err != nil {
				t.Fatal(err)
			}
			if !equalState(live, model) {
				t.Fatal("live state diverges from sequential model of the log")
			}
			if got := recoverState(t, alg, rec); !equalState(got, model) {
				t.Fatalf("%v replay diverges from sequential model", alg)
			}
			if got := recoverState(t, stm.Sequential, rec); !equalState(got, model) {
				t.Fatal("Sequential replay diverges from sequential model")
			}
		})
	}
}

// TestCrashPrefixEveryOrderedEngine snapshots the WAL directory while
// the stream is still running — the moral equivalent of a crash at an
// arbitrary instant, torn tail included — and asserts the recovered
// prefix replays to exactly the sequential-execution state of that
// prefix, for every ordered engine.
func TestCrashPrefixEveryOrderedEngine(t *testing.T) {
	for _, alg := range stm.OrderedAlgorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			const n = 1500
			dir := t.TempDir()
			accounts := newAccounts(durableAccounts, 1000)
			w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 4, SegmentBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			p, err := stm.NewPipeline(stm.Config{
				Algorithm: alg,
				Workers:   4,
				WAL:       w,
				Codec:     tfCodec{accounts: accounts},
			})
			if err != nil {
				t.Fatal(err)
			}
			snapDir := t.TempDir()
			var once sync.Once
			for i := 0; i < n; i++ {
				tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
				if err != nil {
					t.Fatal(err)
				}
				if i == n/2 {
					if err := tk.Wait(); err != nil {
						t.Fatal(err)
					}
					// The ticket resolves at commit, which may be before
					// the writer has written a byte: sync until the first
					// half is on disk, or the copy can hold no record.
					for w.Durable() <= n/2 {
						if err := w.Sync(); err != nil {
							t.Fatal(err)
						}
					}
					// "Crash": copy the live log mid-stream, while the
					// writer keeps appending into it concurrently.
					once.Do(func() { copyDirLive(t, dir, snapDir) })
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := wal.Recover(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Count() == 0 {
				t.Fatal("snapshot recovered no records (crash point too early?)")
			}
			if rec.Count() > n {
				t.Fatalf("recovered %d records from a %d-transaction run", rec.Count(), n)
			}
			model := make([]uint64, durableAccounts)
			for i := range model {
				model[i] = 1000
			}
			if err := applyTransfers(model, replayed(t, rec), 0); err != nil {
				t.Fatal(err)
			}
			if got := recoverState(t, alg, rec); !equalState(got, model) {
				t.Fatalf("%v crash replay diverges from sequential prefix state", alg)
			}
		})
	}
}

// copyDirLive clones a directory that may be concurrently appended to
// (torn tails in the copy are expected and welcome).
func copyDirLive(t *testing.T, src, dst string) {
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

// TestRecoveredPipelineContinues exercises the full restart loop:
// run, close, recover, replay through a WAL-attached pipeline
// (idempotent re-appends), submit new work, recover again — the log
// must hold the uninterrupted sequence.
func TestRecoveredPipelineContinues(t *testing.T) {
	const n1, n2 = 200, 150
	dir := t.TempDir()
	first := runDurableStream(t, stm.OUL, dir, n1, false)

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := rec.Writer(wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	accounts := newAccounts(durableAccounts, 1000)
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:   stm.OUL,
		Workers:     4,
		WAL:         w,
		Codec:       tfCodec{accounts: accounts},
		WaitDurable: true,
		FirstAge:    rec.First(),
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
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if !equalState(snapshot(accounts), first) {
		t.Fatal("replayed state diverges from pre-crash state")
	}
	for i := n1; i < n1+n2; i++ {
		tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Count() != n1+n2 {
		t.Fatalf("final log holds %d records, want %d", rec2.Count(), n1+n2)
	}
	if got := recoverState(t, stm.Sequential, rec2); !equalState(got, snapshot(accounts)) {
		t.Fatal("final replay diverges from live state")
	}
}

// TestDurablePipelineRejectsOpaqueBodies: a WAL-backed pipeline must
// not accept submissions it cannot replay — a Body request through any
// entry point, alone or inside a batch — and a refusal consumes no age.
func TestDurablePipelineRejectsOpaqueBodies(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	accounts := newAccounts(4, 0)
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: stm.OUL,
		WAL:       w,
		Codec:     tfCodec{accounts: accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	body := func(stm.Tx, int) {}
	if _, err := p.Submit(body); !errors.Is(err, stm.ErrPayloadRequired) {
		t.Fatalf("Submit err = %v, want ErrPayloadRequired", err)
	}
	if _, err := p.SubmitCtx(context.Background(), stm.Request{Body: body}); !errors.Is(err, stm.ErrPayloadRequired) {
		t.Fatalf("SubmitCtx err = %v, want ErrPayloadRequired", err)
	}
	batch := []stm.Request{{Encoded: transferFor(0).encode()}, {Body: body}}
	if out, err := p.SubmitBatch(context.Background(), batch, nil); !errors.Is(err, stm.ErrPayloadRequired) || len(out) != 0 {
		t.Fatalf("SubmitBatch = (%d tickets, %v), want ErrPayloadRequired for the whole batch", len(out), err)
	}
	if _, err := stm.SubmitFunc(context.Background(), p, func(stm.Tx, int) uint64 { return 0 }); !errors.Is(err, stm.ErrPayloadRequired) {
		t.Fatalf("SubmitFunc err = %v, want ErrPayloadRequired", err)
	}
	if got := p.Submitted(); got != 0 {
		t.Fatalf("refused submissions consumed %d ages", got)
	}
}

// TestWaitDurableDefersUntilSync: under sync policy "none" a
// committed transaction's ticket stays unresolved until an explicit
// Sync lands its age on stable storage.
func TestWaitDurableDefersUntilSync(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(dir, 0, wal.Options{}) // policy none
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	accounts := newAccounts(durableAccounts, 1000)
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:   stm.OUL,
		Workers:     2,
		WAL:         w,
		Codec:       tfCodec{accounts: accounts},
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := p.SubmitEncoded(transferFor(0).encode())
	if err != nil {
		t.Fatal(err)
	}
	// The transaction commits in memory...
	deadline := time.Now().Add(5 * time.Second)
	for p.Committed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("transaction never committed")
		}
		time.Sleep(time.Millisecond)
	}
	// ...but its ticket must stay deferred until durability.
	if err, resolved := tk.Err(); resolved {
		t.Fatalf("ticket resolved (%v) before its age was durable", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if p.Durable() == 0 {
		t.Fatal("durability frontier did not advance")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// failingLog is a DurableLog whose Appends start failing on demand.
type failingLog struct {
	mu     sync.Mutex
	broken bool
	next   uint64
	fn     func(next uint64, err error)
}

func (l *failingLog) Append(age uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken {
		return errors.New("disk on fire")
	}
	l.next = age + 1
	return nil
}
func (l *failingLog) Notify(fn func(next uint64, err error)) { l.fn = fn }
func (l *failingLog) Sync() error                            { return nil }
func (l *failingLog) Durable() uint64                        { return 0 }
func (l *failingLog) breakNow()                              { l.mu.Lock(); l.broken = true; l.mu.Unlock() }

// TestLogFailureCommitStillAcknowledged: without WaitDurable, a
// ticket acknowledges the in-memory commit — a log failure must not
// turn a committed transaction's resolution into an error (that is
// Close's and WaitDurable's job to report).
func TestLogFailureCommitStillAcknowledged(t *testing.T) {
	log := &failingLog{}
	accounts := newAccounts(durableAccounts, 1000)
	p, err := stm.NewPipeline(stm.Config{
		Algorithm: stm.OUL,
		Workers:   2,
		WAL:       log,
		Codec:     tfCodec{accounts: accounts},
	})
	if err != nil {
		t.Fatal(err)
	}
	log.breakNow()
	tk, err := p.SubmitEncoded(transferFor(0).encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("committed ticket resolved with %v, want nil", err)
	}
	var derr *stm.DurabilityError
	if err := p.Close(); !errors.As(err, &derr) {
		t.Fatalf("Close returned %v, want DurabilityError", err)
	}
}

// TestLogFailureSurfacesOnTickets: once the WAL dies, WaitDurable
// tickets resolve with a DurabilityError instead of hanging.
func TestLogFailureSurfacesOnTickets(t *testing.T) {
	log := &failingLog{}
	accounts := newAccounts(durableAccounts, 1000)
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:   stm.OUL,
		Workers:     2,
		WAL:         log,
		Codec:       tfCodec{accounts: accounts},
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	log.breakNow()
	tk, err := p.SubmitEncoded(transferFor(0).encode())
	if err != nil {
		t.Fatal(err)
	}
	var derr *stm.DurabilityError
	if err := tk.Wait(); !errors.As(err, &derr) {
		t.Fatalf("ticket resolved with %v, want DurabilityError", err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close reported success after log failure")
	}
}

// TestSubmitBatchDurable: the batched durable producer path (encoded
// requests under WaitDurable) yields the same log and state as
// one-at-a-time submission.
func TestSubmitBatchDurable(t *testing.T) {
	const n = 96
	dir := t.TempDir()
	accounts := newAccounts(durableAccounts, 1000)
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 8, SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:   stm.OUL,
		Workers:     4,
		WAL:         w,
		Codec:       tfCodec{accounts: accounts},
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]stm.Request, 0, 16)
	for i := 0; i < n; i += 16 {
		batch = batch[:0]
		for j := i; j < i+16; j++ {
			batch = append(batch, stm.Request{Encoded: transferFor(uint64(j)).encode()})
		}
		tks, err := p.SubmitBatch(context.Background(), batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range tks {
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != n {
		t.Fatalf("log holds %d records, want %d", rec.Count(), n)
	}
	if got := recoverState(t, stm.Sequential, rec); !equalState(got, snapshot(accounts)) {
		t.Fatal("replay diverges from live state")
	}
}
