//go:build !race

// The allocation pins run without the race detector: in race mode
// sync.Pool drops a quarter of what is put into it, so a parked wait
// that is free in a normal build costs allocations there.

package shard_test

import (
	"errors"
	"sync/atomic"
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

// TestDurableSubmitAllocs pins a single-shard submission on a
// WaitDurable router whose log is durable as soon as it appends, so the
// router resolves each ticket at its append. On top of the router's
// copy of the payload, the submission record and the body the shard
// runs, the router-resolved ticket costs its outcome; the global-age
// bookkeeping from registration to resolution costs nothing.
func TestDurableSubmitAllocs(t *testing.T) {
	pool := stm.NewVars(16)
	bk := buckets(pool, 2)
	a, b := &pool[bk[0][0]], &pool[bk[0][1]]
	codec := fixedCodec{access: stm.Touches(a, b), body: func(tx stm.Tx, _ int) { tx.Write(b, tx.Read(a)+1) }}
	sp, err := shard.New(shard.Config{
		Shards:      2,
		Pipeline:    stm.Config{Algorithm: stm.OWB, Workers: 2},
		WAL:         new(memLog),
		Codec:       codec,
		WaitDurable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	payload := []byte("bump")
	n := testing.AllocsPerRun(2000, func() {
		tk, err := sp.SubmitEncoded(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("durable single-shard SubmitEncoded+Wait: %v allocations per transaction", n)
	if budget := 4.0; n > budget {
		t.Errorf("durable single-shard SubmitEncoded+Wait: %v allocations per transaction, want at most %v", n, budget)
	}
}

// fixedCodec decodes every payload to the same declaration and body.
type fixedCodec struct {
	access stm.Access
	body   stm.Body
}

func (c fixedCodec) Encode(any) ([]byte, error) { return nil, errors.New("fixedCodec encodes nothing") }

func (c fixedCodec) Decode([]byte) (stm.Access, stm.Body, error) { return c.access, c.body, nil }

// memLog is an in-memory log whose every append is durable at once.
type memLog struct{ durable atomic.Uint64 }

func (l *memLog) Append(age uint64, _ []byte) error   { l.durable.Store(age + 1); return nil }
func (l *memLog) Notify(func(next uint64, err error)) {}
func (l *memLog) Sync() error                         { return nil }
func (l *memLog) Durable() uint64                     { return l.durable.Load() }
