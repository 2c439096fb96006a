// Replica: the state-machine-replication use case from the paper's
// introduction. A consensus layer (Paxos/Raft) has already assigned
// every command a slot number; each replica must apply commands so
// the result is equivalent to slot order, or replicas diverge. The
// predefined commit order (age = slot) lets a replica apply commands
// speculatively in parallel while guaranteeing the sequential-order
// result — two simulated replicas with different worker counts end up
// byte-identical.
package main

import (
	"fmt"
	"log"

	"github.com/orderedstm/ostm/stm"
)

const (
	keys  = 128
	slots = 20000
)

// command is a consensus-ordered KV operation.
type command struct {
	op  byte // 'P' put, 'I' increment, 'M' move
	k1  int
	k2  int
	arg uint64
}

func genLog() []command {
	cmds := make([]command, slots)
	h := uint64(42)
	next := func() uint64 { h = h*6364136223846793005 + 1442695040888963407; return h >> 16 }
	for i := range cmds {
		switch next() % 3 {
		case 0:
			cmds[i] = command{op: 'P', k1: int(next() % keys), arg: next() % 1000}
		case 1:
			cmds[i] = command{op: 'I', k1: int(next() % keys), arg: next() % 10}
		default:
			cmds[i] = command{op: 'M', k1: int(next() % keys), k2: int(next() % keys)}
		}
	}
	return cmds
}

// replica applies the command log on its own store with its own
// parallelism level.
func replica(name string, alg stm.Algorithm, workers int, cmds []command) []uint64 {
	store := stm.NewVars(keys)
	ex, err := stm.NewExecutor(stm.Config{Algorithm: alg, Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	res, err := ex.Run(len(cmds), func(tx stm.Tx, slot int) {
		c := cmds[slot]
		switch c.op {
		case 'P':
			tx.Write(&store[c.k1], c.arg)
		case 'I':
			tx.Write(&store[c.k1], tx.Read(&store[c.k1])+c.arg)
		case 'M':
			v := tx.Read(&store[c.k1])
			tx.Write(&store[c.k1], 0)
			tx.Write(&store[c.k2], tx.Read(&store[c.k2])+v)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %v workers=%-2d  %8.0f cmds/s  aborts=%d\n",
		name, alg, workers, res.Throughput(), res.Stats.TotalAborts())
	out := make([]uint64, keys)
	for i := range store {
		out[i] = store[i].Load()
	}
	return out
}

func main() {
	cmds := genLog()
	// The "leader" applies sequentially; two replicas apply the same
	// log speculatively with different parallelism.
	ref := replica("leader", stm.Sequential, 1, cmds)
	r1 := replica("replica-1", stm.OWB, 4, cmds)
	r2 := replica("replica-2", stm.OWB, 12, cmds)
	for i := range ref {
		if r1[i] != ref[i] || r2[i] != ref[i] {
			log.Fatalf("replica divergence at key %d: %d / %d / %d", i, ref[i], r1[i], r2[i])
		}
	}
	fmt.Println("\nall replicas converged to the leader's exact state")
}
