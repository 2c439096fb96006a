package stm_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/obs"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

// TestModeBoundaryOracle runs the cooperative engines with a switch
// between speculative and direct execution forced every 1 to 64
// commits, at seeded ages, over three stacks: a volatile pipeline, a
// durable one (WaitDurable log, automatic checkpoints) and a two-shard
// router with 10 % cross-shard transfers. Forced switches land anywhere,
// also while the previous mode's tail is still running, so a direct age
// can wait for speculative ones below it and a speculative segment can
// start above a direct age that has not run yet. Every ticket's result
// and the final state must equal the sequential fold, and the durable
// log must recover to that state.
func TestModeBoundaryOracle(t *testing.T) {
	const n = 3000
	stacks := []struct {
		name string
		run  func(t *testing.T, alg stm.Algorithm, xs []modeXfer) (results, state []uint64)
	}{
		{"volatile", runModeVolatile},
		{"durable", runModeDurable},
		{"sharded", runModeSharded},
	}
	for _, alg := range []stm.Algorithm{stm.OWB, stm.OUL} {
		for i, st := range stacks {
			t.Run(alg.String()+"/"+st.name, func(t *testing.T) {
				restore := stm.ForceModeBoundaries(uint64(alg)<<8 | uint64(i) + 1)
				defer restore()
				xs := modeXfers(uint64(i)+7, n, st.name == "sharded")
				wantResults, wantState := foldModeXfers(xs)
				results, state := st.run(t, alg, xs)
				for age := range wantResults {
					if results[age] != wantResults[age] {
						t.Fatalf("age %d's result is %d, the sequential fold's %d", age, results[age], wantResults[age])
					}
				}
				if !equalState(state, wantState) {
					t.Fatal("the final state differs from the sequential fold")
				}
			})
		}
	}
}

// modeAccounts is the oracle's account count: few, so that speculative
// ages conflict, and split across shards by their Var's hash.
const modeAccounts = 32

// modeXfer moves age%7+1 from one account to another when the sender
// has it; its result is the sender's balance afterwards.
type modeXfer struct{ from, to uint32 }

func (x modeXfer) encode() []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], x.from)
	binary.LittleEndian.PutUint32(b[4:8], x.to)
	return b[:]
}

// modeXfers draws n transfers. For the sharded stack they are routed
// by account index parity (the accounts the router places on shard 0
// versus 1 are picked at run time, see runModeSharded): 10 % cross the
// two halves, the rest stay in one.
func modeXfers(seed uint64, n int, sharded bool) []modeXfer {
	r := rng.New(seed)
	xs := make([]modeXfer, n)
	for i := range xs {
		from, to := uint32(r.Intn(modeAccounts)), uint32(r.Intn(modeAccounts))
		if sharded {
			// Same half (even/odd slot) unless this is a cross transfer.
			half := uint32(r.Intn(2))
			cross := r.Intn(10) == 0
			from = from&^1 | half
			to = to&^1 | half
			if cross {
				to ^= 1
			}
		}
		xs[i] = modeXfer{from: from, to: to}
	}
	return xs
}

func foldModeXfers(xs []modeXfer) (results, state []uint64) {
	state = make([]uint64, modeAccounts)
	for i := range state {
		state[i] = 1000
	}
	results = make([]uint64, len(xs))
	for age, x := range xs {
		b := state[x.from]
		if amt := uint64(age%7) + 1; b >= amt && x.from != x.to {
			b -= amt
			state[x.from] = b
			state[x.to] += amt
		}
		results[age] = b
	}
	return results, state
}

// modeBody is a transfer's body over accounts, recording its result at
// its age; slot maps a transfer's account index to a Var.
func modeBody(x modeXfer, accounts []stm.Var, slot []int, results []uint64) stm.Body {
	from, to := &accounts[slot[x.from]], &accounts[slot[x.to]]
	return func(tx stm.Tx, age int) {
		b := tx.Read(from)
		if age%3 == 0 {
			runtime.Gosched() // let other ages in between the read and the write
		}
		if amt := uint64(age%7) + 1; b >= amt && x.from != x.to {
			b -= amt
			tx.Write(from, b)
			tx.Write(to, tx.Read(to)+amt)
		}
		results[age] = b // the committed attempt runs last
	}
}

func identitySlots(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// modeCodec decodes a transfer's bytes into its body.
type modeCodec struct {
	accounts []stm.Var
	results  []uint64
}

func (c modeCodec) Encode(payload any) ([]byte, error) {
	x, ok := payload.(modeXfer)
	if !ok {
		return nil, fmt.Errorf("unexpected payload %T", payload)
	}
	return x.encode(), nil
}

func (c modeCodec) Decode(data []byte) (stm.Body, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("bad transfer payload length %d", len(data))
	}
	x := modeXfer{from: binary.LittleEndian.Uint32(data), to: binary.LittleEndian.Uint32(data[4:])}
	return modeBody(x, c.accounts, identitySlots(modeAccounts), c.results), nil
}

func runModeVolatile(t *testing.T, alg stm.Algorithm, xs []modeXfer) ([]uint64, []uint64) {
	accounts := newAccounts(modeAccounts, 1000)
	results := make([]uint64, len(xs))
	p, err := stm.NewPipeline(stm.Config{Algorithm: alg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	slots := identitySlots(modeAccounts)
	withWatchdog(t, p.Committed, func() {
		for _, x := range xs {
			if _, err := p.Submit(modeBody(x, accounts, slots, results)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	})
	checkSwitched(t, p)
	return results, snapshot(accounts)
}

func runModeDurable(t *testing.T, alg stm.Algorithm, xs []modeXfer) ([]uint64, []uint64) {
	dir := t.TempDir()
	accounts := newAccounts(modeAccounts, 1000)
	results := make([]uint64, len(xs))
	w, err := wal.Create(dir, 0, wal.Options{SyncEveryN: 16})
	if err != nil {
		t.Fatal(err)
	}
	p, err := stm.NewPipeline(stm.Config{
		Algorithm:       alg,
		Workers:         4,
		Codec:           modeCodec{accounts, results},
		WAL:             w,
		WaitDurable:     true,
		CheckpointEvery: 500,
		Snapshotter:     varsSnapshotter(accounts),
	})
	if err != nil {
		t.Fatal(err)
	}
	withWatchdog(t, p.Committed, func() {
		tks := make([]*stm.Ticket, 0, len(xs))
		for _, x := range xs {
			tk, err := p.SubmitEncoded(x.encode())
			if err != nil {
				t.Error(err)
				return
			}
			tks = append(tks, tk)
		}
		for age, tk := range tks {
			if err := tk.Wait(); err != nil {
				t.Errorf("age %d: %v", age, err)
				return
			}
		}
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	checkSwitched(t, p)
	if p.Checkpoints() == 0 {
		t.Fatal("no checkpoint was taken")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	live := snapshot(accounts)

	// Recovery: the newest checkpoint, then the log's suffix replayed
	// through a fresh pipeline of the same engine (switching too).
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	again := newAccounts(modeAccounts, 1000)
	if rec.HasCheckpoint() {
		if err := stm.RestoreVars(again, rec.CheckpointState()); err != nil {
			t.Fatal(err)
		}
	}
	rp, err := stm.NewPipeline(stm.Config{
		Algorithm: alg,
		Workers:   4,
		Codec:     modeCodec{again, make([]uint64, len(xs))},
		FirstAge:  rec.First(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(func(age uint64, payload []byte) error {
		_, err := rp.SubmitEncoded(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}
	if !equalState(snapshot(again), live) {
		t.Fatal("the recovered state differs from the live one")
	}
	return results, live
}

func runModeSharded(t *testing.T, alg stm.Algorithm, xs []modeXfer) ([]uint64, []uint64) {
	const shards = 2
	reg := obs.NewRegistry()
	sp, err := shard.New(shard.Config{Shards: shards, Pipeline: stm.Config{Algorithm: alg, Workers: 2}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Place account index i on shard i%2: draw Vars until each half has
	// modeAccounts/2 of them.
	pool := newAccounts(8*modeAccounts, 1000)
	slots := make([]int, modeAccounts)
	var next [shards]int
	for v := range pool {
		s := sp.ShardOf(&pool[v])
		if next[s] < modeAccounts/shards {
			slots[2*next[s]+s] = v
			next[s]++
		}
	}
	if next[0] < modeAccounts/shards || next[1] < modeAccounts/shards {
		t.Fatalf("the pool's Vars fill the shards %v, want %d each", next, modeAccounts/shards)
	}
	results := make([]uint64, len(xs))
	cross := 0
	withWatchdog(t, func() uint64 { return sp.Stats().Commits }, func() {
		tks := make([]*shard.Ticket, 0, len(xs))
		for _, x := range xs {
			from, to := &pool[slots[x.from]], &pool[slots[x.to]]
			if sp.ShardOf(from) != sp.ShardOf(to) {
				cross++
			}
			tk, err := sp.Submit(stm.Touches(from, to), modeBody(x, pool, slots, results))
			if err != nil {
				t.Error(err)
				return
			}
			tks = append(tks, tk)
		}
		for age, tk := range tks {
			if err := tk.Wait(); err != nil {
				t.Errorf("age %d: %v", age, err)
				return
			}
		}
		if err := sp.Close(); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if cross == 0 {
		t.Fatal("no cross-shard transfer")
	}
	direct, _ := reg.Sum("ostm_pipeline_direct_commits_total")
	switches, _ := reg.Sum("ostm_pipeline_mode_switches_total")
	if commits := float64(sp.Stats().Commits); direct == 0 || direct == commits || switches < 4 {
		t.Fatalf("%.0f of %.0f commits ran directly over %.0f switches; the boundaries were not exercised",
			direct, commits, switches)
	}
	state := make([]uint64, modeAccounts)
	for i, v := range slots {
		state[i] = pool[v].Load()
	}
	return results, state
}

// checkSwitched fails a run in which the forced boundaries did not
// both run ages directly and switch back and forth.
func checkSwitched(t *testing.T, p *stm.Pipeline) {
	t.Helper()
	direct, switches := stm.ModeCounts(p)
	if direct == 0 || direct == p.Committed() || switches < 4 {
		t.Fatalf("%d of %d commits ran directly over %d switches; the boundaries were not exercised",
			direct, p.Committed(), switches)
	}
}

// withWatchdog runs f on its own goroutine and fails the test with
// every goroutine's stack if progress() stands still for 10 s while f
// runs (slow under the race detector on a busy host is not a hang). f
// reports failures with t.Error, not t.Fatal.
func withWatchdog(t *testing.T, progress func() uint64, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	seen := progress()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if c := progress(); c != seen {
				seen = c
				continue
			}
			buf := make([]byte, 1<<20)
			t.Fatalf("no commit for 10 s\n%s", buf[:runtime.Stack(buf, true)])
		}
	}
}
