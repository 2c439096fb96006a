package shard

// Internal-package stress test: the closed-loop shape cmd/streambench
// drives at scale, kept here with access to the per-shard pipelines so
// a stall produces a diagnosable report instead of a test timeout.
// This workload (many pipelines in one process) is what exposed the flat-combining validator parking race fixed in
// the run-loop's validatorLoop.

import (
	"sync"
	"testing"
	"time"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
)

func TestShardedClosedLoopStress(t *testing.T) {
	rounds, perClient := 4, 4000
	if testing.Short() {
		rounds, perClient = 1, 800
	}
	for round := 0; round < rounds; round++ {
		const shards, clients = 4, 16
		sp, err := New(Config{Shards: shards, Pipeline: stm.Config{Algorithm: stm.OUL, Workers: 4}})
		if err != nil {
			t.Fatal(err)
		}
		pool := stm.NewVars(4096)
		buckets := make([][]*stm.Var, shards)
		for i := range pool {
			s := sp.ShardOf(&pool[i])
			buckets[s] = append(buckets[s], &pool[i])
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rng.New(uint64(round*clients+c)*77 + 1)
				for i := 0; i < perClient; i++ {
					s := r.Intn(shards)
					bk := buckets[s]
					a, b := bk[r.Intn(len(bk))], bk[r.Intn(len(bk))]
					tk, err := sp.Submit(stm.Touches(a, b), func(tx stm.Tx, age int) {
						cur := tx.Read(a)
						if cur > 3 {
							tx.Write(a, cur-3)
							tx.Write(b, tx.Read(b)+3)
						}
					})
					if err != nil {
						t.Error(err)
						return
					}
					select {
					case <-tk.Done():
					case <-time.After(60 * time.Second):
						for si, p := range sp.pipes {
							t.Logf("pipe %d: submitted=%d committed=%d inflight=%d fault=%v",
								si, p.Submitted(), p.Committed(), p.InFlight(), p.Fault())
						}
						t.Errorf("round %d: client %d stalled on global age %d (local %d)",
							round, c, tk.Age(), tk.local.Age())
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for i := range pool {
			total += pool[i].Load()
		}
		if total != 0 {
			// Pool starts at zero and transfers conserve: total must stay 0.
			t.Fatalf("round %d: conservation broken, total=%d", round, total)
		}
	}
}
