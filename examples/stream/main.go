// Stream: the state-machine-replication use case as a *live* typed
// pipeline. Where examples/replica applies a prerecorded command log
// as one batch, this replica receives commands one at a time from a
// consensus layer (simulated as a goroutine emitting slot-ordered
// commands on a channel) and feeds them straight into an
// stm.Pipeline through the typed API: SubmitFunc assigns each command
// its consensus slot as the age, a pool of workers applies them
// speculatively in parallel, and each command's TicketOf resolves
// exactly when its slot commits — carrying the command's typed reply
// (the value the client would be answered with), which is the
// committing attempt's result and never a speculative one. The
// acknowledgement loop waits with a context deadline (WaitCtx), as a
// real server would.
//
// At the end the speculative replica's store and every reply are
// compared against a sequential apply of the same log: byte-identical,
// per the predefined commit order guarantee.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
)

// metricsLine renders one live summary line from a registry snapshot:
// cumulative commits, the last second's rate, the commit frontier's
// lag behind submissions, and the engine abort ratio.
func metricsLine(reg *obs.Registry, lastCommitted *float64) string {
	committed, _ := reg.Sum("ostm_committed_total")
	lag, _ := reg.Sum("ostm_frontier_lag")
	commits, _ := reg.Sum("ostm_commits_total")
	aborts, _ := reg.Sum("ostm_aborts_total")
	rate := committed - *lastCommitted
	*lastCommitted = committed
	ratio := 0.0
	if commits > 0 {
		ratio = aborts / commits
	}
	return fmt.Sprintf("  [obs] committed=%.0f tx/s=%.0f frontier_lag=%.0f abort_ratio=%.3f",
		committed, rate, lag, ratio)
}

const (
	keys  = 128
	slots = 30000
)

// command is a consensus-ordered KV operation.
type command struct {
	op  byte // 'P' put, 'I' increment, 'M' move
	k1  int
	k2  int
	arg uint64
}

func genCommand(h *uint64) command {
	next := func() uint64 { *h = *h*6364136223846793005 + 1442695040888963407; return *h >> 16 }
	switch next() % 3 {
	case 0:
		return command{op: 'P', k1: int(next() % keys), arg: next() % 1000}
	case 1:
		return command{op: 'I', k1: int(next() % keys), arg: next() % 10}
	default:
		return command{op: 'M', k1: int(next() % keys), k2: int(next() % keys)}
	}
}

// apply builds the typed transaction for one command over a store;
// the returned value is the command's reply (the key's new value).
func apply(c command, store []stm.TVar[uint64]) stm.Func[uint64] {
	return func(tx stm.Tx, _ int) uint64 {
		switch c.op {
		case 'P':
			stm.WriteT(tx, &store[c.k1], c.arg)
			return c.arg
		case 'I':
			nv := stm.ReadT(tx, &store[c.k1]) + c.arg
			stm.WriteT(tx, &store[c.k1], nv)
			return nv
		default: // 'M'
			v := stm.ReadT(tx, &store[c.k1])
			stm.WriteT(tx, &store[c.k1], 0)
			nv := stm.ReadT(tx, &store[c.k2]) + v
			stm.WriteT(tx, &store[c.k2], nv)
			return nv
		}
	}
}

func main() {
	// The "consensus layer": an unbounded stream of slot-ordered
	// commands. The replica does not know how many will ever arrive.
	consensus := make(chan command, 64)
	go func() {
		h := uint64(42)
		for i := 0; i < slots; i++ {
			consensus <- genCommand(&h)
		}
		close(consensus)
	}()

	store := stm.NewTVars[uint64](keys)
	reg := obs.NewRegistry()
	p, err := stm.NewPipeline(stm.Config{Algorithm: stm.OWB, Workers: 8, Obs: reg})
	if err != nil {
		log.Fatal(err)
	}

	// Live metrics: one summary line per second straight from the
	// registry snapshot — the same numbers a /metrics scrape would see.
	var lastCommitted float64
	obsStop := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-obsStop:
				return
			case <-tick.C:
				fmt.Println(metricsLine(reg, &lastCommitted))
			}
		}
	}()

	// The acknowledgement path: a goroutine awaits each ticket in slot
	// order with a deadline, as a replica answering clients would. A
	// deadline miss abandons only the wait — the slot still commits,
	// so the replica retries the wait rather than losing the slot.
	var ack sync.WaitGroup
	tickets := make(chan *stm.TicketOf[uint64], 256)
	replies := make([]uint64, 0, slots)
	ack.Add(1)
	go func() {
		defer ack.Done()
		for tk := range tickets {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			v, err := tk.ValueCtx(ctx)
			cancel()
			if errors.Is(err, stm.ErrCanceled) {
				v, err = tk.Value() // deadline missed; the slot is still ours
			}
			if err != nil {
				log.Fatalf("slot %d failed: %v", tk.Age(), err)
			}
			replies = append(replies, v)
		}
	}()

	// The apply loop: submit each command as it arrives, remember the
	// log for the sequential cross-check.
	var cmds []command
	start := time.Now()
	for c := range consensus {
		cmds = append(cmds, c)
		tk, err := stm.SubmitFunc(p, apply(c, store))
		if err != nil {
			log.Fatal(err)
		}
		tickets <- tk
	}
	close(tickets)
	ack.Wait()
	close(obsStop)
	obsWG.Wait()
	fmt.Println(metricsLine(reg, &lastCommitted)) // final snapshot (short runs may beat the first tick)
	if err := p.Close(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("replica applied %d slots in %v (%.0f cmds/s, %d aborts, %d epochs)\n",
		len(replies), elapsed.Round(time.Millisecond),
		stm.Throughput(p.Committed(), elapsed), p.Stats().TotalAborts(), p.Epochs())

	// Cross-check against a sequential leader applying the same log:
	// final store AND every reply must match.
	leader := stm.NewTVars[uint64](keys)
	seq, err := stm.NewPipeline(stm.Config{Algorithm: stm.Sequential})
	if err != nil {
		log.Fatal(err)
	}
	for slot, c := range cmds {
		tk, err := stm.SubmitFunc(seq, apply(c, leader))
		if err != nil {
			log.Fatal(err)
		}
		want, err := tk.Value()
		if err != nil {
			log.Fatal(err)
		}
		if want != replies[slot] {
			log.Fatalf("reply divergence at slot %d: replica %d, leader %d", slot, replies[slot], want)
		}
	}
	if err := seq.Close(); err != nil {
		log.Fatal(err)
	}
	for i := range leader {
		if store[i].Load() != leader[i].Load() {
			log.Fatalf("divergence at key %d: replica %d, leader %d",
				i, store[i].Load(), leader[i].Load())
		}
	}
	fmt.Println("replica state and every typed reply are identical to the sequential leader")
}
