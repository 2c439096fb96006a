//go:build !race

// The allocation pins run without the race detector: in race mode
// sync.Pool drops a quarter of what is put into it, so a parked wait
// that is free in a normal build costs allocations there.

package shard_test

import (
	"testing"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
)

// TestSubmitAllocs pins the router's per-transaction heap objects on
// two shards. A single-shard submission costs its one submission
// record — which embeds the shard pipeline's ticket — and the body
// that pipeline runs. A two-shard one costs the rendezvous record, its
// participant list (each participant embeds its fence ticket), the
// involved-shard list, one fence body per shard and the round's write
// log.
func TestSubmitAllocs(t *testing.T) {
	sp, err := shard.New(shard.Config{Shards: 2, Pipeline: stm.Config{Algorithm: stm.OWB, Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	pool := stm.NewVars(16)
	bk := buckets(pool, 2)
	a, b := &pool[bk[0][0]], &pool[bk[0][1]]
	c := &pool[bk[1][0]]
	local := stm.Touches(a, b)
	cross := stm.Touches(a, c)
	bump := func(tx stm.Tx, _ int) { tx.Write(b, tx.Read(a)+1) }
	move := func(tx stm.Tx, _ int) {
		v := tx.Read(a)
		tx.Write(a, v-1)
		tx.Write(c, tx.Read(c)+1)
	}
	pin := func(name string, access stm.Access, body stm.Body, budget float64) {
		t.Helper()
		n := testing.AllocsPerRun(2000, func() {
			tk, err := sp.Submit(access, body)
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s Submit+Wait: %v allocations per transaction", name, n)
		if n > budget {
			t.Errorf("%s Submit+Wait: %v allocations per transaction, want at most %v", name, n, budget)
		}
	}
	pin("single-shard", local, bump, 2)
	pin("two-shard", cross, move, 8)
}
