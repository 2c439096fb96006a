package stm_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/wal"
)

// TestPipelineWakeups puts every kind of sleeper on the stream at once,
// at the Capacity floor: eight producers parking on backpressure
// through SubmitEncoded, SubmitBatch and SubmitCtx (some of whose
// contexts end while they are parked), two goroutines looping Drain,
// and, with a log, one looping Checkpoint, whose gate stops every
// claim until the commits below it land. Commits wake the last three
// without the stream lock, so a lost wakeup is a hang; the watchdog
// turns it into a failure carrying every goroutine's stack.
func TestPipelineWakeups(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OrderedTL2} {
		for _, workers := range []int{2, 4} {
			for _, durable := range []bool{false, true} {
				name := fmt.Sprintf("%v/W%d", alg, workers)
				if durable {
					name += "/wal"
				}
				t.Run(name, func(t *testing.T) { runWakeups(t, alg, workers, durable) })
			}
		}
	}
}

func runWakeups(t *testing.T, alg stm.Algorithm, workers int, durable bool) {
	const (
		producers   = 8
		perProducer = 1200
		drainers    = 2
	)
	accounts := newAccounts(durableAccounts, 1000)
	cfg := stm.Config{
		Algorithm: alg,
		Workers:   workers,
		Capacity:  1, // raised to the floor, Window+Workers+8
		Codec:     tfCodec{accounts: accounts},
	}
	var w *wal.Writer
	if durable {
		var err error
		if w, err = wal.Create(t.TempDir(), 0, wal.Options{SyncEveryN: 4}); err != nil {
			t.Fatal(err)
		}
		cfg.WAL, cfg.WaitDurable, cfg.Snapshotter = w, true, varsSnapshotter(accounts)
	}
	p, err := stm.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stm.PinSpeculative(p) // every worker claims, none sits on the direct bench

	var (
		prod, side sync.WaitGroup
		stop       atomic.Bool
		accepted   atomic.Uint64
	)
	for pr := 0; pr < producers; pr++ {
		prod.Add(1)
		go func() {
			defer prod.Done()
			var tickets []*stm.Ticket
			for i := 0; i < perProducer; i++ {
				payload := transferFor(uint64(pr*perProducer + i)).encode()
				var err error
				switch i % 4 {
				case 0:
					var tk *stm.Ticket
					if tk, err = p.SubmitEncoded(payload); err == nil {
						tickets = append(tickets, tk)
					}
				case 1:
					reqs := []stm.Request{{Encoded: payload}, {Encoded: transferFor(uint64(i)).encode()}}
					tickets, err = p.SubmitBatch(context.Background(), reqs, tickets)
				case 2:
					// A deadline that often ends while the call is parked
					// at Capacity, and sometimes before it starts.
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%7)*20*time.Microsecond)
					var tk *stm.Ticket
					if tk, err = p.SubmitCtx(ctx, stm.Request{Encoded: payload}); err == nil {
						tickets = append(tickets, tk)
					} else if errors.Is(err, stm.ErrCanceled) {
						err = nil // withdrawn before an age was assigned
					}
					cancel()
				case 3:
					ctx, cancel := context.WithCancel(context.Background())
					var tk *stm.Ticket
					if tk, err = p.SubmitCtx(ctx, stm.Request{Encoded: payload}); err == nil {
						tickets = append(tickets, tk)
					}
					cancel()
				}
				if err != nil {
					t.Errorf("producer %d, submission %d: %v", pr, i, err)
					return
				}
			}
			for _, tk := range tickets {
				if err := tk.Wait(); err != nil {
					t.Errorf("producer %d: age %d: %v", pr, tk.Age(), err)
				}
			}
			accepted.Add(uint64(len(tickets)))
		}()
	}
	for d := 0; d < drainers; d++ {
		side.Add(1)
		go func() {
			defer side.Done()
			for !stop.Load() {
				if err := p.Drain(); err != nil {
					t.Errorf("Drain: %v", err)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	if durable {
		side.Add(1)
		go func() {
			defer side.Done()
			for !stop.Load() {
				if _, err := p.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
				runtime.Gosched()
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		prod.Wait()
		stop.Store(true)
		side.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("no progress in 10 s: a wakeup was lost\n%s", buf[:runtime.Stack(buf, true)])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if w != nil {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := p.Committed(), accepted.Load(); got != want {
		t.Fatalf("committed %d, accepted %d", got, want)
	}
	var total uint64
	for _, v := range snapshot(accounts) {
		total += v
	}
	if total != durableAccounts*1000 {
		t.Fatalf("balances sum to %d, want %d", total, durableAccounts*1000)
	}
}

// TestSubmissionSlotReuseUnderSkew: on the engines that report commits
// out of age order, backpressure can admit an age whose submission
// slot's previous tenant is claimed but not yet read out, and post must
// wait for that claimer to release the slot. Each body checks that it
// runs at the age its submission was assigned: a slot rewritten before
// its claimer read it would run the newer body at the older age.
//
// The durable inputs run the ordered engines whose workers report their
// own commits on a WaitDurable log, where the same skew reaches the
// log's frontier tracker: an age reported ahead of its predecessor
// waits for it, and one still held when a later age comes round to its
// slot must move aside rather than be overwritten. Window 20 puts the
// Capacity floor at 32, a full ring, so one overtaking report is enough
// for that. Every ticket must resolve nil, and the log must replay
// exactly ages [0, n), each with its own payload, to the live state.
func TestSubmissionSlotReuseUnderSkew(t *testing.T) {
	var skewed uint64 // commit reports below an age already reported
	for _, alg := range []stm.Algorithm{stm.TL2, stm.NOrec, stm.UndoLogVis, stm.UndoLogInvis, stm.STMLite} {
		t.Run(alg.String(), func(t *testing.T) { skewed += runSlotReuse(t, alg, false) })
	}
	for _, alg := range []stm.Algorithm{stm.STMLite, stm.OrderedTL2, stm.OrderedNOrec, stm.OrderedUndoLogVis, stm.OrderedUndoLogInvis} {
		t.Run("durable/"+alg.String(), func(t *testing.T) { skewed += runSlotReuse(t, alg, true) })
	}
	if skewed == 0 {
		t.Fatal("no engine reported a commit out of age order; the test exercised no skew")
	}
}

// runSlotReuse streams n transfers through one pipeline, each body
// checking its age and counting itself, checks that exactly n bodies
// committed and the final state — the sequential fold of the log on a
// durable pipeline, the conserved total otherwise — and returns how
// many commits were reported below an age already reported.
func runSlotReuse(t *testing.T, alg stm.Algorithm, durable bool) uint64 {
	n := 50000
	if durable {
		n = 20000
	}
	accounts := newAccounts(durableAccounts, 1000)
	counts := stm.NewVars(4) // committed bodies, striped by submission
	var (
		wrong        atomic.Int64
		top, reorder atomic.Uint64
	)
	// body is submission i's transfer.
	body := func(i uint64) stm.Body {
		tf := transferFor(i)
		return func(tx stm.Tx, age int) {
			if uint64(age) != i {
				wrong.CompareAndSwap(0, int64(i)<<32|int64(age))
			}
			amt := uint64(age%5) + 1
			if bf := tx.Read(&accounts[tf.from]); bf >= amt && tf.from != tf.to {
				tx.Write(&accounts[tf.from], bf-amt)
				tx.Write(&accounts[tf.to], tx.Read(&accounts[tf.to])+amt)
			}
			c := &counts[i%uint64(len(counts))]
			tx.Write(c, tx.Read(c)+1)
			if i%8 == 0 {
				runtime.Gosched()
			}
		}
	}
	cfg := stm.Config{
		Algorithm: alg,
		Workers:   4,
		Capacity:  1, // raised to the floor, Window+Workers+8
		OnCommit: func(age uint64) {
			for {
				m := top.Load()
				if age < m {
					reorder.Add(1)
					return
				}
				if top.CompareAndSwap(m, age) {
					return
				}
			}
		},
	}
	var (
		dir string
		w   *wal.Writer
	)
	if durable {
		dir = t.TempDir()
		var err error
		if w, err = wal.Create(dir, 0, wal.Options{SyncEveryN: 64}); err != nil {
			t.Fatal(err)
		}
		// A durable payload is the submission's index.
		cfg.Codec = stm.CodecFunc{DecodeFunc: func(data []byte) (stm.Body, error) {
			return body(binary.LittleEndian.Uint64(data)), nil
		}}
		cfg.WAL, cfg.WaitDurable, cfg.Window = w, true, 20
	}
	p, err := stm.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tickets := make([]*stm.Ticket, n)
	for i := range tickets {
		if durable {
			tickets[i], err = p.SubmitEncoded(binary.LittleEndian.AppendUint64(nil, uint64(i)))
		} else {
			tickets[i], err = p.Submit(body(uint64(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if x := wrong.Load(); x != 0 {
		t.Fatalf("the body of submission %d ran at age %d", x>>32, uint32(x))
	}
	// Every submission's effect lands exactly once: a lost or repeated
	// commit would still conserve the total below.
	var committed uint64
	for _, v := range snapshot(counts) {
		committed += v
	}
	if committed != uint64(n) {
		t.Fatalf("%d bodies committed, want %d", committed, n)
	}
	live := snapshot(accounts)
	if !durable {
		// The unordered engines promise no order, only atomicity.
		var total uint64
		for _, v := range live {
			total += v
		}
		if total != durableAccounts*1000 {
			t.Fatalf("balances sum to %d, want %d", total, durableAccounts*1000)
		}
		return reorder.Load()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := replayed(t, rec)
	if len(recs) != n {
		t.Fatalf("the log replays %d records, want %d", len(recs), n)
	}
	for k, r := range recs {
		if i := binary.LittleEndian.Uint64(r.Payload); r.Age != uint64(k) || i != uint64(k) {
			t.Fatalf("record %d: age %d with the payload of submission %d", k, r.Age, i)
		}
	}
	model := make([]uint64, durableAccounts)
	for i := range model {
		model[i] = 1000
	}
	for age := uint64(0); age < uint64(n); age++ {
		tf, amt := transferFor(age), age%5+1
		if model[tf.from] >= amt && tf.from != tf.to {
			model[tf.from] -= amt
			model[tf.to] += amt
		}
	}
	if !equalState(live, model) {
		t.Fatal("the live state diverges from the sequential fold of the log")
	}
	return reorder.Load()
}
