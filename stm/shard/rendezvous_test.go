package shard_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
)

// TestLateRendezvousCommits holds one side of a cross-shard
// transaction behind a slow local body, far longer than a rendezvous
// wait spins, so the participant that arrives first has to park and be
// woken by the late one. Held shard 1 makes the home (shard 0) wait for
// its peer; held shard 0 makes the peer wait for the home to arrive and
// run the body. Either way the transaction must form and commit, and
// every read and the final memory must match the sequential fold.
func TestLateRendezvousCommits(t *testing.T) {
	for _, alg := range stm.OrderedAlgorithms() {
		for held := range 2 {
			t.Run(fmt.Sprintf("%v/held%d", alg, held), func(t *testing.T) {
				t.Parallel()
				lateRendezvous(t, alg, held)
			})
		}
	}
}

func lateRendezvous(t *testing.T, alg stm.Algorithm, held int) {
	pool := stm.NewVars(poolSize)
	initPool(pool)
	bk := buckets(pool, 2)
	vs := [2]*stm.Var{&pool[bk[0][0]], &pool[bk[1][0]]}
	want := [2]uint64{vs[0].Load(), vs[1].Load()}

	sp, err := shard.New(shard.Config{
		Shards:   2,
		Pipeline: stm.Config{Algorithm: alg, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The slow local body: it holds its shard's frontier below the
	// cross-shard fence until released.
	release := make(chan struct{})
	hv := vs[held]
	slow, err := sp.Submit(stm.Touches(hv), func(tx stm.Tx, age int) {
		x := tx.Read(hv)
		<-release
		tx.Write(hv, x+7)
	})
	if err != nil {
		t.Fatal(err)
	}
	want[held] += 7

	var crossRead [2]uint64
	cross, err := sp.Submit(stm.Touches(vs[0], vs[1]), func(tx stm.Tx, age int) {
		a, b := tx.Read(vs[0]), tx.Read(vs[1])
		crossRead = [2]uint64{a, b}
		tx.Write(vs[0], a+2*b)
		tx.Write(vs[1], b-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRead := want
	want = [2]uint64{want[0] + 2*want[1], want[1] - 1}

	// Local traffic behind the fence on both shards.
	var after []*shard.Ticket
	for i := range 20 {
		s := i % 2
		v := vs[s]
		tk, err := sp.Submit(stm.Touches(v), func(tx stm.Tx, age int) {
			tx.Write(v, tx.Read(v)*3+uint64(age))
		})
		if err != nil {
			t.Fatal(err)
		}
		want[s] = want[s]*3 + tk.Age()
		after = append(after, tk)
	}

	time.Sleep(20 * time.Millisecond) // the first arrival spins out and parks
	close(release)
	for _, tk := range append([]*shard.Ticket{slow, cross}, after...) {
		if err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", tk.Age(), err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if crossRead != wantRead {
		t.Fatalf("cross-shard transaction read %v, the sequential fold %v", crossRead, wantRead)
	}
	if got := [2]uint64{vs[0].Load(), vs[1].Load()}; got != want {
		t.Fatalf("final memory %v, the sequential fold %v", got, want)
	}
}
