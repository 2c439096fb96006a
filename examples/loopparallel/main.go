// Loopparallel: speculative parallelization of a sequential loop with
// loop-carried dependencies — the paper's primary motivation (Lerna,
// HydraVM). The loop below computes a running digest over a table
// while updating a small histogram; iteration i reads what iteration
// i-1 wrote, so naive parallelization is impossible. Transactions +
// a predefined commit order (the loop index) recover the exact
// sequential semantics while extracting speculative parallelism.
package main

import (
	"fmt"
	"log"

	"github.com/orderedstm/ostm/stm"
)

const (
	iterations = 30000
	buckets    = 16
)

func main() {
	data := make([]uint64, iterations)
	for i := range data {
		data[i] = uint64(i)*2654435761 + 12345
	}

	hist := stm.NewVars(buckets)
	digest := stm.NewVar(0) // the loop-carried dependency

	loopBody := func(tx stm.Tx, i int) {
		d := tx.Read(digest)
		x := data[i] ^ d // depends on the previous iteration's digest
		b := &hist[x%buckets]
		tx.Write(b, tx.Read(b)+1)
		tx.Write(digest, d*31+x)
	}

	run := func(alg stm.Algorithm, workers int) (uint64, []uint64) {
		digest.Store(0)
		for i := range hist {
			hist[i].Store(0)
		}
		ex, err := stm.NewExecutor(stm.Config{Algorithm: alg, Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		res, err := ex.Run(iterations, loopBody)
		if err != nil {
			log.Fatal(err)
		}
		h := make([]uint64, buckets)
		for i := range hist {
			h[i] = hist[i].Load()
		}
		fmt.Printf("%-12s workers=%d  %8.0f iters/s  aborts=%d\n",
			alg, workers, res.Throughput(), res.Stats.TotalAborts())
		return digest.Load(), h
	}

	wantDigest, wantHist := run(stm.Sequential, 1)
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		gotDigest, gotHist := run(alg, 8)
		if gotDigest != wantDigest {
			log.Fatalf("%v: digest %#x != sequential %#x", alg, gotDigest, wantDigest)
		}
		for b := range gotHist {
			if gotHist[b] != wantHist[b] {
				log.Fatalf("%v: histogram bucket %d differs", alg, b)
			}
		}
	}
	fmt.Printf("\nall parallel runs reproduced the sequential digest %#x exactly\n", wantDigest)
}
