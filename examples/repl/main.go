// Command repl demonstrates WAL-shipping replication and leader
// hand-off, all in one process: a durable ordered-commit leader
// serves clients over h2c while a Shipper streams its log — closed
// segments and the live tail — to a hot-standby Follower that applies
// every record through its own pipeline into its own local WAL. The
// leader's listener is then torn down mid-flight (the in-process
// equivalent of a SIGKILL on its network face) and the follower is
// promoted: the promoted state must equal the sequential fold of
// exactly the ages the leader acknowledged — no lost committed
// transaction, no phantom the leader never acked — and a client with
// redial enabled chases the NotLeader hand-off to a commit without
// the application noticing.
//
// The point being demonstrated: with a predefined commit order, the
// replication stream IS the state-machine — a follower is a recovery
// replay that never ends, so fail-over is just "stop replaying, start
// accepting" at a log position both sides agree on.
//
//	go run ./examples/repl
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/repl"
	"github.com/orderedstm/ostm/stm/serve"
	"github.com/orderedstm/ostm/stm/wal"
)

const (
	accounts = 32
	balance  = 1_000
	txns     = 2_000
)

// codec decodes the 8-byte (from, to) wire form into the usual
// conditional transfer: amount = age%5+1, applied only when the
// source covers it — age-dependent, so any replay divergence between
// leader and follower shows up in the balances.
type codec struct{ pool []stm.Var }

func (c codec) Encode(payload any) ([]byte, error) { return payload.([]byte), nil }
func (c codec) Decode(data []byte) (stm.Body, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("bad payload length %d", len(data))
	}
	from := binary.LittleEndian.Uint32(data[0:4])
	to := binary.LittleEndian.Uint32(data[4:8])
	if int(from) >= len(c.pool) || int(to) >= len(c.pool) {
		return nil, fmt.Errorf("transfer %d→%d out of range", from, to)
	}
	return func(tx stm.Tx, age int) {
		amt := uint64(age%5) + 1
		b := tx.Read(&c.pool[from])
		if b >= amt && from != to {
			tx.Write(&c.pool[from], b-amt)
			tx.Write(&c.pool[to], tx.Read(&c.pool[to])+amt)
		}
	}, nil
}

func transferPayload(from, to uint32) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], from)
	binary.LittleEndian.PutUint32(b[4:8], to)
	return b[:]
}

func newPool() []stm.Var {
	pool := stm.NewVars(accounts)
	for i := range pool {
		pool[i].Store(balance)
	}
	return pool
}

func waitFor(what string, d time.Duration, cond func() bool) {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "repl: timed out waiting for", what)
			os.Exit(1)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func main() {
	ldir, err := os.MkdirTemp("", "ostm-repl-leader-*")
	check(err)
	defer os.RemoveAll(ldir)
	fdir, err := os.MkdirTemp("", "ostm-repl-follower-*")
	check(err)
	defer os.RemoveAll(fdir)
	opts := wal.Options{SyncEveryN: 16, SegmentBytes: 16 << 10}

	fmt.Println("phase 1: start a durable leader with the shipper mounted on its listener")
	lpool := newPool()
	lw, err := wal.Create(ldir, 0, opts)
	check(err)
	lp, err := stm.NewPipeline(stm.Config{
		Algorithm:   stm.OWB,
		Workers:     4,
		WAL:         lw,
		Codec:       codec{lpool},
		WaitDurable: true, // acks only after the group commit — only durable ages ever ship
	})
	check(err)
	ship := repl.NewShipper(lw, repl.ShipperOptions{Heartbeat: 25 * time.Millisecond})
	lsrv, err := serve.NewServer(serve.Config{
		Pipeline: lp,
		Handlers: map[string]http.Handler{"/repl/stream": ship.Handler()},
	})
	check(err)
	check(lsrv.Start("127.0.0.1:0"))
	laddr := lsrv.Addr().String()
	fmt.Printf("  leader listening on %s (submit wire + /repl/stream on one listener)\n", laddr)

	fmt.Println("phase 2: start a hot standby — a recovery replay that never ends")
	fpool := newPool()
	var (
		fw *wal.Writer
		fp *stm.Pipeline
	)
	f, err := repl.StartFollower(repl.FollowerConfig{
		Dir:    fdir,
		Leader: laddr,
		WAL:    opts,
		Boot: func(b repl.Boot) (repl.Runtime, error) {
			// Boot is ordinary recovery: restore the snapshot if the
			// stream began with one, build the engine with the local log
			// attached, replay what the disk already holds. From then on
			// every applied record commits AND appends locally, so the
			// follower's log is always a durable prefix of the leader's.
			fw = b.Writer
			if b.Snapshot != nil {
				if err := stm.RestoreVars(fpool, b.Snapshot); err != nil {
					return repl.Runtime{}, err
				}
			}
			var err error
			fp, err = stm.NewPipeline(stm.Config{
				Algorithm:   stm.OWB,
				Workers:     4,
				FirstAge:    b.FirstAge,
				WAL:         b.Writer,
				Codec:       codec{fpool},
				WaitDurable: true,
			})
			if err != nil {
				return repl.Runtime{}, err
			}
			for _, r := range b.Records {
				if _, err := fp.SubmitEncoded(r.Payload); err != nil {
					return repl.Runtime{}, err
				}
			}
			if err := fp.Drain(); err != nil {
				return repl.Runtime{}, err
			}
			return repl.Runtime{
				Submit: func(pl []byte) error { _, err := fp.SubmitEncoded(pl); return err },
				Drain:  func() error { return fp.Drain() },
			}, nil
		},
	})
	check(err)
	fsrv, err := serve.NewServer(serve.Config{
		Pipeline: fp,
		Gate:     f.Gate(), // refuse writes with NotLeader until promoted
	})
	check(err)
	check(fsrv.Start("127.0.0.1:0"))
	faddr := fsrv.Addr().String()
	fmt.Printf("  follower listening on %s, streaming from the leader\n", faddr)

	fmt.Println("phase 3: drive the leader over the wire; the follower replicates live")
	c, err := serve.Dial(context.Background(), laddr)
	check(err)
	byAge := make(map[uint64][]byte, txns)
	calls := make([]*serve.Call, 0, txns)
	payloads := make([][]byte, 0, txns)
	start := time.Now()
	for i := 0; i < txns; i++ {
		pl := transferPayload(uint32((i*7)%accounts), uint32((i*13+1)%accounts))
		call, err := c.Submit(pl)
		check(err)
		calls = append(calls, call)
		payloads = append(payloads, pl)
	}
	for i, call := range calls {
		age, err := call.Wait()
		check(err)
		byAge[age] = payloads[i]
	}
	c.Close()
	fmt.Printf("  %d transfers acknowledged durable in %v\n", txns, time.Since(start))

	waitFor("follower catch-up", 10*time.Second, func() bool { return f.Frontier() == txns })
	rec, bytes := f.Applied()
	fmt.Printf("  follower caught up: frontier %d, applied %d records (%d bytes), age lag %d\n",
		f.Frontier(), rec, bytes, f.LagAges())

	fmt.Println("phase 4: kill the leader's listener — submit streams and the replication stream die together")
	killCtx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = lsrv.Shutdown(killCtx)
	fmt.Printf("  leader gone from the network (follower will retry %s and find nobody)\n", laddr)

	fmt.Println("phase 5: before promotion the follower refuses writes with a typed NotLeader")
	c0, err := serve.Dial(context.Background(), faddr)
	check(err)
	call0, err := c0.Submit(transferPayload(0, 1))
	check(err)
	if _, err := call0.Wait(); !errors.Is(err, serve.ErrNotLeader) {
		fmt.Fprintf(os.Stderr, "repl: pre-promotion submit got %v, want NotLeader\n", err)
		os.Exit(1)
	} else if hint, ok := serve.LeaderHint(err); ok {
		fmt.Printf("  refused with NotLeader, hint names the (dead) leader: %s\n", hint)
	}
	c0.Close()

	fmt.Println("phase 6: a redial-enabled client submits during the hand-off, then the follower promotes")
	c1, err := serve.Dial(context.Background(), faddr, serve.WithNotLeaderRedial())
	check(err)
	extra := transferPayload(2, 3)
	call1, err := c1.Submit(extra)
	check(err)
	waitFor("redial to begin", 5*time.Second, func() bool { return c1.Redials() >= 1 })
	check(f.Promote()) // stop the stream, drain the apply pipeline, open the write gate
	age1, err := call1.Wait()
	check(err)
	byAge[age1] = extra
	fmt.Printf("  promoted at frontier %d; the redialed submit committed at age %d after %d redials\n",
		f.Frontier(), age1, c1.Redials())
	c1.Close()

	fmt.Println("phase 7: verify the promoted state against a sequential fold of the acknowledged history")
	check(fp.Drain())
	if next := fw.Next(); next != age1+1 {
		fmt.Fprintf(os.Stderr, "repl: promoted log next age %d, want %d (phantom durables?)\n", next, age1+1)
		os.Exit(1)
	}
	model := make([]uint64, accounts)
	for i := range model {
		model[i] = balance
	}
	for age := uint64(0); age <= age1; age++ {
		pl, ok := byAge[age]
		if !ok {
			fmt.Fprintf(os.Stderr, "repl: promoted log holds age %d the old leader never acked\n", age)
			os.Exit(1)
		}
		from := binary.LittleEndian.Uint32(pl[0:4])
		to := binary.LittleEndian.Uint32(pl[4:8])
		amt := age%5 + 1
		if model[from] >= amt && from != to {
			model[from] -= amt
			model[to] += amt
		}
	}
	var total uint64
	for i := range fpool {
		if got := fpool[i].Load(); got != model[i] {
			fmt.Fprintf(os.Stderr, "repl: account %d: promoted %d, model %d\n", i, got, model[i])
			os.Exit(1)
		} else {
			total += got
		}
	}
	fmt.Printf("  all %d accounts match the fold of ages 0..%d (total conserved: %d)\n",
		accounts, age1, total)

	fmt.Println("phase 8: the promoted leader keeps serving — a plain client commits the next age")
	c2, err := serve.Dial(context.Background(), faddr)
	check(err)
	call2, err := c2.Submit(transferPayload(4, 5))
	check(err)
	age2, err := call2.Wait()
	check(err)
	fmt.Printf("  committed at age %d — hand-off complete, history contiguous\n", age2)
	c2.Close()

	f.Close()
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	_ = fsrv.Shutdown(shutCtx)
	check(fp.Close())
	check(fw.Close())
	check(lp.Close())
	check(lw.Close())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "repl:", err)
		os.Exit(1)
	}
}
