package stm_test

// Regression coverage for exactly-once DurabilityError resolution on
// the pipeline's failure paths (append failure, in-flight sync
// failure, Close) and for the wal.Degrade policy's contract: parked
// WaitDurable tickets fail fast, volatile commits keep flowing.
//
// Exactly-once is asserted structurally: Ticket.resolve closes a
// channel, so any double resolution panics the test. Every scenario
// additionally bounds each Wait with a timeout so a *lost* resolution
// (the other way exactly-once breaks) fails instead of hanging.

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/orderedstm/ostm/internal/faultfs"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/wal"
)

// waitTimeout waits on a ticket with a deadline; a hang means a
// WaitDurable resolution was lost.
func waitTimeout(t *testing.T, tk *stm.Ticket) error {
	t.Helper()
	select {
	case <-tk.Done():
		err, _ := tk.Err()
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("ticket for age %d never resolved", tk.Age())
		return nil
	}
}

// TestCloseWithInFlightSyncFailureExactlyOnce is the satellite
// regression: a persistent fsync failure lands while overlapped sync
// groups are in flight and the pipeline is closed underneath them.
// Every WaitDurable ticket must resolve exactly once — nil for ages
// the log made durable, DurabilityError for the rest — and Close must
// report the durability failure.
func TestCloseWithInFlightSyncFailureExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		// The first (explicit) fsync lands; every later one fails, and
		// the delay keeps the failing group on the wire while Close's
		// own sync is admitted — the overlapped shape under test.
		faultfs.Plan{Op: faultfs.OpSync, N: 2, Err: syscall.EIO, Count: -1, Delay: 2 * time.Millisecond},
	)
	// Sync policy "none": every durability point in this test is an
	// explicit Sync, so where the fault lands is deterministic.
	w, err := wal.Create(dir, 0, wal.Options{
		FS:               fs,
		MaxInFlightSyncs: 4,
	})
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
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	tickets := make([]*stm.Ticket, 0, n)
	submit := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			tickets = append(tickets, tk)
		}
	}
	// First half committed, appended, and synced: those tickets
	// resolve durable before the disk goes bad.
	submit(0, n/2)
	if !p.WaitFrontier(n / 2) {
		t.Fatal("frontier never reached n/2")
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("healthy sync failed: %v", err)
	}
	// Second half commits but only ever meets failing syncs.
	submit(n/2, n)
	if !p.WaitFrontier(n) {
		t.Fatal("frontier never reached n")
	}
	// Put a doomed sync on the wire (it parks 2ms inside the failing
	// fdatasync), then Close the pipeline underneath it so Close's own
	// final sync overlaps the in-flight failure.
	syncErr := make(chan error, 1)
	go func() { syncErr <- w.Sync() }()
	time.Sleep(500 * time.Microsecond)
	closeErr := p.Close()
	var de *stm.DurabilityError
	if !errors.As(closeErr, &de) {
		t.Fatalf("Close = %v, want DurabilityError (injected=%d log=%v)", closeErr, fs.Injected(), fs.Log())
	}
	if err := <-syncErr; err == nil {
		t.Fatal("overlapped Sync reported success after the log failed")
	}
	var durable, failed int
	for _, tk := range tickets {
		err := waitTimeout(t, tk)
		// Wait must be stable: a second read returns the same answer.
		if again, _ := tk.Err(); (again != nil) != (err != nil) {
			t.Fatalf("ticket %d: Wait unstable (%v then %v)", tk.Age(), err, again)
		}
		switch {
		case err == nil:
			durable++
			if tk.Age() >= w.Durable() {
				t.Fatalf("ticket %d resolved durable beyond the log's frontier %d", tk.Age(), w.Durable())
			}
		default:
			var de *stm.DurabilityError
			if !errors.As(err, &de) {
				t.Fatalf("ticket %d resolved with %v, want nil or DurabilityError", tk.Age(), err)
			}
			failed++
		}
	}
	if durable == 0 || failed == 0 {
		t.Fatalf("durable=%d failed=%d, want both outcomes exercised (fault fired: %d)",
			durable, failed, fs.Injected())
	}
	w.Close()
}

// muteFailLog is a DurableLog whose Sync fails without ever firing
// the durability observer — the shape that used to leave WaitDurable
// tickets parked at Close to be settled with ErrClosed instead of the
// DurabilityError Close itself reported.
type muteFailLog struct {
	mu      sync.Mutex
	next    uint64
	syncErr error
}

func (l *muteFailLog) Append(age uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if age == l.next {
		l.next++
	}
	return nil
}

func (l *muteFailLog) Notify(fn func(next uint64, err error)) {}

func (l *muteFailLog) Sync() error { return l.syncErr }

func (l *muteFailLog) Durable() uint64 { return 0 }

func TestCloseSyncFailureWithoutNotifyResolvesDurabilityError(t *testing.T) {
	accounts := newAccounts(durableAccounts, 1000)
	log := &muteFailLog{syncErr: syscall.EIO}
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
	tickets := make([]*stm.Ticket, 0, 8)
	for i := 0; i < 8; i++ {
		tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	closeErr := p.Close()
	var de *stm.DurabilityError
	if !errors.As(closeErr, &de) {
		t.Fatalf("Close = %v, want DurabilityError", closeErr)
	}
	for _, tk := range tickets {
		err := waitTimeout(t, tk)
		if !errors.As(err, &de) {
			t.Fatalf("ticket %d resolved with %v, want DurabilityError (the same failure Close reported)", tk.Age(), err)
		}
	}
}

// TestAppendFailureFailsParkedTicketsFast: with sync policy "none" no
// sync point will ever fire the observer, so the append-path failure
// notification is the only thing standing between a parked
// WaitDurable ticket and a hang until Close.
func TestAppendFailureFailsParkedTicketsFast(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		// Segment roll (open #2) hits a full disk.
		faultfs.Plan{Op: faultfs.OpOpen, N: 2, Err: syscall.ENOSPC, Count: -1},
	)
	w, err := wal.Create(dir, 0, wal.Options{FS: fs, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
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
	tickets := make([]*stm.Ticket, 0, 64)
	for i := 0; i < 64; i++ {
		tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
		if err != nil {
			break
		}
		tickets = append(tickets, tk)
	}
	// No Close, no Sync: the async failure note must resolve every
	// parked ticket on its own.
	var de *stm.DurabilityError
	for _, tk := range tickets {
		if err := waitTimeout(t, tk); !errors.As(err, &de) {
			t.Fatalf("ticket %d resolved with %v, want DurabilityError", tk.Age(), err)
		}
	}
	p.Close()
	w.Close()
}

// TestDegradeFailsTicketsFastAndKeepsCommitting: under OnFail=Degrade
// a terminal sync failure detaches the log; WaitDurable tickets —
// parked and future — fail fast with ErrDegraded while the engine
// keeps committing volatile, and the recovered log never contains
// more than the frontier the writer acknowledged durable.
func TestDegradeFailsTicketsFastAndKeepsCommitting(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(nil,
		faultfs.Plan{Op: faultfs.OpSync, N: 2, Err: syscall.EIO, Count: -1},
	)
	w, err := wal.Create(dir, 0, wal.Options{
		FS:         fs,
		SyncEveryN: 4,
		OnFail:     wal.Degrade,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	const n = 300
	var acked []uint64 // ages acknowledged durable (ticket resolved nil)
	var degradedSeen bool
	for i := 0; i < n; i++ {
		tk, err := p.SubmitEncoded(transferFor(uint64(i)).encode())
		if err != nil {
			t.Fatalf("submit %d rejected (%v): volatile commits must keep flowing after degrade", i, err)
		}
		switch err := waitTimeout(t, tk); {
		case err == nil:
			acked = append(acked, tk.Age())
		case errors.Is(err, wal.ErrDegraded):
			degradedSeen = true
		default:
			t.Fatalf("ticket %d resolved with %v, want nil or ErrDegraded", tk.Age(), err)
		}
	}
	if !degradedSeen {
		t.Fatalf("degrade never tripped (injected=%d)", fs.Injected())
	}
	if !w.Degraded() {
		t.Fatal("writer does not report Degraded after ErrDegraded tickets")
	}
	// Every transaction committed in memory despite the dead disk.
	closeErr := p.Close()
	if !errors.Is(closeErr, wal.ErrDegraded) {
		t.Fatalf("Close = %v, want ErrDegraded via DurabilityError", closeErr)
	}
	got := snapshot(accounts)
	model := make([]uint64, durableAccounts)
	for i := range model {
		model[i] = 1000
	}
	recs := make([]wal.Record, n)
	for i := range recs {
		tf := transferFor(uint64(i))
		recs[i] = wal.Record{Age: uint64(i), Payload: encodeTransfer(tf)}
	}
	if err := applyTransfers(model, recs, 0); err != nil {
		t.Fatal(err)
	}
	if !equalState(got, model) {
		t.Fatal("in-memory state diverged from the sequential fold of all submissions")
	}
	w.Close()
	// Safety: no acknowledgment beyond the recovered log.
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, age := range acked {
		if age >= rec.Next() {
			t.Fatalf("age %d was acknowledged durable but the recovered log ends at %d", age, rec.Next())
		}
	}
}

func encodeTransfer(tf transfer) []byte {
	b, err := tfCodec{}.Encode(tf)
	if err != nil {
		panic(err)
	}
	return b
}
