// Command recovery demonstrates the *typed* durable ordered-commit
// pipeline surviving a real crash: the program re-executes itself as
// a child process that streams typed bank-transfer requests into a
// WAL-backed pipeline (stm.CodecOf + SubmitPayloadT — each
// acknowledged request carries a typed reply, the sender's new
// balance) and is killed mid-stream (os.Exit — no flushing, no
// goodbye). The parent then recovers the log, truncates the torn
// tail, replays the surviving prefix through SubmitEncodedT of a
// fresh pipeline — re-deriving the same typed replies — and verifies
// the rebuilt state against an independent sequential fold of the
// same records.
//
// The point being demonstrated: with a predefined commit order and
// deterministic bodies, the log of committed inputs IS the state —
// recovery is nothing but replay, and even the typed results come
// back.
//
//	go run ./examples/recovery
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/wal"
)

// metricsLine renders a live one-line summary from the registry: the
// commit frontier's lag behind submissions, the last interval's commit
// rate, the abort ratio, and the WAL's group-commit pipelining depth.
func metricsLine(reg *obs.Registry, lastCommitted *float64) string {
	committed, _ := reg.Sum("ostm_committed_total")
	lag, _ := reg.Sum("ostm_frontier_lag")
	commits, _ := reg.Sum("ostm_commits_total")
	aborts, _ := reg.Sum("ostm_aborts_total")
	depth, _ := reg.Sum("ostm_wal_sync_depth_max")
	rate := committed - *lastCommitted
	*lastCommitted = committed
	ratio := 0.0
	if commits > 0 {
		ratio = aborts / commits
	}
	return fmt.Sprintf("  [obs] committed=%.0f tx/s=%.0f frontier_lag=%.0f abort_ratio=%.3f wal_sync_depth_max=%.0f",
		committed, rate, lag, ratio, depth)
}

const (
	accounts = 64
	balance  = 1_000
)

// request is one transfer command: the typed durable input from which
// the transaction is decoded, both live and at recovery.
type request struct{ from, to uint32 }

// codec builds the application's typed codec: an 8-byte wire form,
// decoded into a deterministic transfer whose typed result is the
// sender's post-transfer balance.
func codec(pool []stm.TVar[uint64]) *stm.TypedCodec[request, uint64] {
	return stm.CodecOf(
		func(r request) ([]byte, error) {
			var b [8]byte
			binary.LittleEndian.PutUint32(b[0:4], r.from)
			binary.LittleEndian.PutUint32(b[4:8], r.to)
			return b[:], nil
		},
		func(data []byte) (request, error) {
			if len(data) != 8 {
				return request{}, fmt.Errorf("bad payload length %d", len(data))
			}
			r := request{
				from: binary.LittleEndian.Uint32(data[0:4]),
				to:   binary.LittleEndian.Uint32(data[4:8]),
			}
			if int(r.from) >= len(pool) || int(r.to) >= len(pool) {
				return request{}, fmt.Errorf("transfer %d→%d out of range", r.from, r.to)
			}
			return r, nil
		},
		func(r request) stm.Func[uint64] {
			return func(tx stm.Tx, age int) uint64 {
				amt := uint64(age%5) + 1
				b := stm.ReadT(tx, &pool[r.from])
				if b >= amt && r.from != r.to {
					stm.WriteT(tx, &pool[r.from], b-amt)
					stm.WriteT(tx, &pool[r.to], stm.ReadT(tx, &pool[r.to])+amt)
					return b - amt
				}
				return b
			}
		},
	)
}

// poolSnapshotter captures/restores the whole pool as 8 bytes per
// account — the state a checkpoint freezes at a stable frontier.
func poolSnapshotter(pool []stm.TVar[uint64]) stm.Snapshotter {
	return stm.SnapshotterFuncs{
		SnapshotFunc: func() ([]byte, error) {
			b := make([]byte, 8*len(pool))
			for i := range pool {
				binary.LittleEndian.PutUint64(b[8*i:], pool[i].Load())
			}
			return b, nil
		},
		RestoreFunc: func(data []byte) error {
			if len(data) != 8*len(pool) {
				return fmt.Errorf("snapshot holds %d bytes, want %d", len(data), 8*len(pool))
			}
			for i := range pool {
				pool[i].Store(binary.LittleEndian.Uint64(data[8*i:]))
			}
			return nil
		},
	}
}

func countSegments(dir string) int {
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	return len(segs)
}

func newPool() []stm.TVar[uint64] {
	pool := stm.NewTVars[uint64](accounts)
	for i := range pool {
		pool[i].Store(balance)
	}
	return pool
}

func transferFor(age uint64) request {
	return request{from: uint32(age * 7 % accounts), to: uint32((age*13 + 1) % accounts)}
}

// child streams typed transfers through a durable pipeline and dies
// without warning partway through.
func child(dir string) {
	pool := newPool()
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 32})
	check(err)
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:   stm.OWB,
		Workers:     4,
		WAL:         w,
		Codec:       codec(pool),
		WaitDurable: true, // tickets resolve only once their age is on disk
	})
	check(err)
	for age := uint64(0); ; age++ {
		tk, err := stm.SubmitPayloadT[request, uint64](p, transferFor(age))
		check(err)
		if age == 3_000 {
			// An acknowledged transfer is durable — and its typed reply
			// is the committed one. Report it, then crash: no Close, no
			// Sync; whatever the group commits already flushed is all
			// that survives, and the acknowledged prefix is guaranteed
			// to be part of it.
			reply, err := tk.Value()
			check(err)
			fmt.Printf("  child: age %d acknowledged durable (reply=%d, frontier %d) — crashing now\n",
				age, reply, p.Durable())
			os.Exit(0)
		}
	}
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		child(os.Args[2])
		return
	}
	dir, err := os.MkdirTemp("", "ostm-recovery-*")
	check(err)
	defer os.RemoveAll(dir)

	fmt.Println("phase 1: run a typed durable pipeline in a child process and kill it mid-stream")
	cmd := exec.Command(os.Args[0], "-child", dir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	check(cmd.Run())

	fmt.Println("phase 2: recover the log")
	rec, err := wal.Recover(dir)
	check(err)
	fmt.Printf("  recovered %d records (ages %d..%d), torn tail truncated: %v\n",
		rec.Count(), rec.First(), rec.Next(), rec.Truncated())

	fmt.Println("phase 3: replay the prefix through SubmitEncodedT (recovery ≡ replay, typed results included)")
	pool := newPool()
	// Small segments so the continued log rolls over several files —
	// phase 6's checkpoint then has history to truncate. The registry
	// observes pipeline and WAL together: one scrape surface for the
	// whole durable stack.
	reg := obs.NewRegistry()
	w, err := rec.Writer(wal.Options{SyncEveryN: 32, SegmentBytes: 4096, Obs: reg})
	check(err)
	start := time.Now()
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:   stm.OWB,
		Workers:     4,
		WAL:         w, // re-appends of recovered ages are no-ops
		Codec:       codec(pool),
		FirstAge:    rec.First(),
		Snapshotter: poolSnapshotter(pool), // enables Checkpoint()
		Obs:         reg,
	})
	check(err)
	var lastCommitted float64
	obsStop := make(chan struct{})
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
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
	replies := make([]uint64, 0, rec.Count())
	tks := make([]*stm.TicketOf[uint64], 0, rec.Count())
	check(rec.Replay(func(age uint64, data []byte) error {
		tk, err := stm.SubmitEncodedT[request, uint64](p, data)
		if err == nil {
			tks = append(tks, tk)
		}
		return err
	}))
	for _, tk := range tks {
		v, err := tk.Value()
		check(err)
		replies = append(replies, v)
	}
	fmt.Printf("  replayed in %v; pipeline resumes at age %d\n", time.Since(start), rec.Next())

	fmt.Println("phase 4: verify state AND typed replies against a sequential fold of the recovered inputs")
	model := make([]uint64, accounts)
	for i := range model {
		model[i] = balance
	}
	for i, r := range rec.Records() {
		from := binary.LittleEndian.Uint32(r.Payload[0:4])
		to := binary.LittleEndian.Uint32(r.Payload[4:8])
		amt := r.Age%5 + 1
		if model[from] >= amt && from != to {
			model[from] -= amt
			model[to] += amt
		}
		if replies[i] != model[from] {
			fmt.Printf("  MISMATCH reply at age %d: replayed %d, model %d\n", r.Age, replies[i], model[from])
			os.Exit(1)
		}
	}
	var total uint64
	for i := range pool {
		if got := pool[i].Load(); got != model[i] {
			fmt.Printf("  MISMATCH account %d: replayed %d, model %d\n", i, got, model[i])
			os.Exit(1)
		} else {
			total += got
		}
	}
	fmt.Printf("  all %d accounts and %d typed replies match the sequential model (total conserved: %d)\n",
		accounts, len(replies), total)

	fmt.Println("phase 5: the recovered pipeline keeps serving — submit new typed work")
	tk, err := stm.SubmitPayloadT[request, uint64](p, transferFor(rec.Next()))
	check(err)
	reply, err := tk.Value()
	check(err)
	fmt.Printf("  new transfer committed at age %d (reply=%d); log now holds %d ages\n", tk.Age(), reply, w.Next())

	fmt.Println("phase 6: checkpoint — freeze a snapshot at the frontier and truncate the log below it")
	var last *stm.TicketOf[uint64]
	for i := 0; i < 3_000; i++ {
		last, err = stm.SubmitPayloadT[request, uint64](p, transferFor(w.Next()+uint64(i)))
		check(err)
	}
	_, err = last.Value() // drain: the checkpoint should cover the whole stream
	check(err)
	segsBefore := countSegments(dir)
	ckptAge, err := p.Checkpoint()
	check(err)
	fmt.Printf("  checkpoint committed at frontier age %d; segments %d -> %d (history below the checkpoint removed)\n",
		ckptAge, segsBefore, countSegments(dir))
	close(obsStop)
	<-obsDone
	fmt.Println(metricsLine(reg, &lastCommitted)) // final snapshot (short runs may beat the first tick)
	check(p.Close())
	check(w.Close())
	liveTotal := make([]uint64, accounts)
	for i := range pool {
		liveTotal[i] = pool[i].Load()
	}

	fmt.Println("phase 7: recover from the checkpoint — restore the snapshot, skip everything below it")
	rec2, err := wal.Recover(dir)
	check(err)
	skippedN, skippedB := rec2.Skipped()
	fmt.Printf("  newest checkpoint at age %d; recovery skips %d logged records (%d bytes) below it, %d left to replay\n",
		rec2.CheckpointAge(), skippedN, skippedB, rec2.Count())
	pool2 := newPool()
	check(poolSnapshotter(pool2).(stm.SnapshotterFuncs).RestoreFunc(rec2.CheckpointState()))
	for i := range pool2 {
		if got := pool2[i].Load(); got != liveTotal[i] {
			fmt.Printf("  MISMATCH account %d: snapshot %d, live %d\n", i, got, liveTotal[i])
			os.Exit(1)
		}
	}
	fmt.Printf("  snapshot restore alone rebuilt all %d accounts — a clean checkpointed close restarts replay-free\n",
		accounts)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "recovery:", err)
		os.Exit(1)
	}
}
